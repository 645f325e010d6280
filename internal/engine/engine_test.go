package engine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"beliefdb/internal/val"
)

func mustSchema(t *testing.T, cols []Column) Schema {
	t.Helper()
	s, err := NewSchema(cols)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newPeople(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	s := mustSchema(t, []Column{
		{Name: "id", Type: val.KindInt},
		{Name: "name", Type: val.KindString},
		{Name: "age", Type: val.KindInt},
	})
	tb, err := c.CreateTable("people", s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, tb
}

func row(vs ...val.Value) []val.Value { return vs }

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]Column{{Name: "a", Type: val.KindInt}, {Name: "a", Type: val.KindInt}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema([]Column{{Name: "", Type: val.KindInt}}); err == nil {
		t.Error("empty column name accepted")
	}
	s := mustSchema(t, []Column{{Name: "x", Type: val.KindInt}})
	if s.ColumnIndex("x") != 0 || s.ColumnIndex("y") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if _, err := s.CheckRow(row(val.Str("no"))); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := s.CheckRow(row(val.Int(1), val.Int(2))); err == nil {
		t.Error("arity mismatch accepted")
	}
	out, err := s.CheckRow(row(val.Float(3.0)))
	if err != nil || out[0].Kind() != val.KindInt {
		t.Errorf("coercion failed: %v %v", out, err)
	}
}

func TestInsertGetDelete(t *testing.T) {
	_, tb := newPeople(t)
	id, err := tb.Insert(row(val.Int(1), val.Str("alice"), val.Int(30)))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Get(id); got == nil || got[1].AsString() != "alice" {
		t.Fatalf("Get = %v", got)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if tb.Get(id) != nil || tb.Len() != 0 {
		t.Error("row survived delete")
	}
	if err := tb.Delete(id); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestPrimaryKeyEnforcement(t *testing.T) {
	_, tb := newPeople(t)
	if _, err := tb.Insert(row(val.Int(1), val.Str("a"), val.Int(1))); err != nil {
		t.Fatal(err)
	}
	_, err := tb.Insert(row(val.Int(1), val.Str("b"), val.Int(2)))
	var dup *ErrDuplicateKey
	if !errors.As(err, &dup) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	// After deleting, the key is reusable.
	id, _ := tb.LookupPK(val.Int(1))
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(row(val.Int(1), val.Str("b"), val.Int(2))); err != nil {
		t.Fatal(err)
	}
}

func TestLookupPK(t *testing.T) {
	_, tb := newPeople(t)
	id, _ := tb.Insert(row(val.Int(7), val.Str("g"), val.Int(9)))
	got, ok := tb.LookupPK(val.Int(7))
	if !ok || got != id {
		t.Errorf("LookupPK = %v %v", got, ok)
	}
	if _, ok := tb.LookupPK(val.Int(8)); ok {
		t.Error("found missing key")
	}
}

func TestUpdate(t *testing.T) {
	_, tb := newPeople(t)
	id, _ := tb.Insert(row(val.Int(1), val.Str("a"), val.Int(1)))
	tb.Insert(row(val.Int(2), val.Str("b"), val.Int(2)))
	if err := tb.Update(id, row(val.Int(2), val.Str("x"), val.Int(3))); err == nil {
		t.Error("pk collision on update accepted")
	}
	if err := tb.Update(id, row(val.Int(3), val.Str("x"), val.Int(3))); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.LookupPK(val.Int(1)); ok {
		t.Error("old pk still indexed")
	}
	if got, ok := tb.LookupPK(val.Int(3)); !ok || tb.Get(got)[1].AsString() != "x" {
		t.Error("new pk not indexed")
	}
}

func TestSecondaryIndex(t *testing.T) {
	_, tb := newPeople(t)
	idx, err := tb.CreateIndex("by_age", []string{"age"})
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert(row(val.Int(1), val.Str("a"), val.Int(30)))
	tb.Insert(row(val.Int(2), val.Str("b"), val.Int(30)))
	tb.Insert(row(val.Int(3), val.Str("c"), val.Int(40)))
	if got := idx.Lookup([]val.Value{val.Int(30)}); len(got) != 2 {
		t.Errorf("Lookup(30) = %v", got)
	}
	id, _ := tb.LookupPK(val.Int(1))
	tb.Delete(id)
	if got := idx.Lookup([]val.Value{val.Int(30)}); len(got) != 1 {
		t.Errorf("after delete Lookup(30) = %v", got)
	}
	// Index built over existing rows.
	idx2, err := tb.CreateIndex("by_name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx2.Lookup([]val.Value{val.Str("c")}); len(got) != 1 {
		t.Errorf("late index Lookup = %v", got)
	}
	if _, err := tb.CreateIndex("by_age", []string{"age"}); err == nil {
		t.Error("duplicate index name accepted")
	}
	if _, err := tb.CreateIndex("bad", []string{"zzz"}); err == nil {
		t.Error("index on missing column accepted")
	}
}

func TestIndexOn(t *testing.T) {
	_, tb := newPeople(t)
	tb.CreateIndex("by_age_name", []string{"age", "name"})
	if tb.IndexOn([]int{2, 1}) == nil {
		t.Error("IndexOn did not find composite index")
	}
	if tb.IndexOn([]int{1, 2}) != nil {
		t.Error("IndexOn matched wrong column order")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := mustSchema(t, []Column{{Name: "x", Type: val.KindInt}})
	if _, err := c.CreateTable("t", s, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", s, -1); err == nil {
		t.Error("duplicate table accepted")
	}
	if c.Table("t") == nil {
		t.Error("Table lookup failed")
	}
}

func TestTxnRollbackInsert(t *testing.T) {
	c, tb := newPeople(t)
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert(row(val.Int(1), val.Str("a"), val.Int(1)))
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 0 {
		t.Errorf("Len after rollback = %d", tb.Len())
	}
	if _, ok := tb.LookupPK(val.Int(1)); ok {
		t.Error("pk index not rolled back")
	}
}

func TestTxnRollbackDeleteUpdate(t *testing.T) {
	c, tb := newPeople(t)
	tb.CreateIndex("by_age", []string{"age"})
	id1, _ := tb.Insert(row(val.Int(1), val.Str("a"), val.Int(10)))
	id2, _ := tb.Insert(row(val.Int(2), val.Str("b"), val.Int(20)))
	txn, _ := c.Begin()
	tb.Delete(id1)
	tb.Update(id2, row(val.Int(2), val.Str("bb"), val.Int(21)))
	tb.Insert(row(val.Int(3), val.Str("c"), val.Int(30)))
	txn.Rollback()
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if got := tb.Get(id1); got == nil || got[1].AsString() != "a" {
		t.Errorf("deleted row not restored: %v", got)
	}
	if got := tb.Get(id2); got[1].AsString() != "b" || got[2].AsInt() != 20 {
		t.Errorf("updated row not restored: %v", got)
	}
	idx := tb.Indexes()["by_age"]
	if len(idx.Lookup([]val.Value{val.Int(10)})) != 1 || len(idx.Lookup([]val.Value{val.Int(21)})) != 0 {
		t.Error("secondary index not rolled back")
	}
}

func TestTxnCommit(t *testing.T) {
	c, tb := newPeople(t)
	txn, _ := c.Begin()
	tb.Insert(row(val.Int(1), val.Str("a"), val.Int(1)))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Error("commit lost the row")
	}
	if err := txn.Commit(); err == nil {
		t.Error("double commit accepted")
	}
}

func TestTxnExclusive(t *testing.T) {
	c, _ := newPeople(t)
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err == nil {
		t.Error("nested Begin accepted")
	}
}

// Property: a random sequence of inserts/deletes/updates inside a
// transaction followed by rollback restores the exact table state, including
// index contents.
func TestQuickTxnRollbackRestoresState(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCatalog()
		s, _ := NewSchema([]Column{{Name: "k", Type: val.KindInt}, {Name: "v", Type: val.KindInt}})
		tb, _ := c.CreateTable("t", s, 0)
		tb.CreateIndex("by_v", []string{"v"})
		// Seed some committed rows.
		for i := 0; i < 10; i++ {
			tb.Insert(row(val.Int(int64(i)), val.Int(int64(r.Intn(5)))))
		}
		before := snapshot(tb)
		txn, _ := c.Begin()
		for op := 0; op < 30; op++ {
			k := int64(r.Intn(20))
			switch r.Intn(3) {
			case 0:
				tb.Insert(row(val.Int(k), val.Int(int64(r.Intn(5)))))
			case 1:
				if id, ok := tb.LookupPK(val.Int(k)); ok {
					tb.Delete(id)
				}
			case 2:
				if id, ok := tb.LookupPK(val.Int(k)); ok {
					tb.Update(id, row(val.Int(k), val.Int(int64(r.Intn(5)))))
				}
			}
		}
		txn.Rollback()
		return snapshotEqual(before, snapshot(tb)) && indexConsistent(tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func snapshot(tb *Table) map[string]string {
	m := make(map[string]string)
	tb.Scan(func(id RowID, r []val.Value) bool {
		m[r[0].Key()] = val.RowKey(r)
		return true
	})
	return m
}

func snapshotEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// indexConsistent verifies every secondary index matches a fresh scan.
func indexConsistent(tb *Table) bool {
	for _, idx := range tb.Indexes() {
		want := make(map[string]int)
		tb.Scan(func(id RowID, r []val.Value) bool {
			vs := make([]val.Value, len(idx.Cols()))
			for i, cpos := range idx.Cols() {
				vs[i] = r[cpos]
			}
			want[val.RowKey(vs)]++
			return true
		})
		total := 0
		for k, n := range want {
			// Reconstruct lookup values is not possible from key alone, so
			// count via scan: each key's rows must match index bucket size.
			_ = k
			total += n
		}
		got := 0
		tb.Scan(func(id RowID, r []val.Value) bool {
			vs := make([]val.Value, len(idx.Cols()))
			for i, cpos := range idx.Cols() {
				vs[i] = r[cpos]
			}
			found := false
			for _, rid := range idx.Lookup(vs) {
				if rid == id {
					found = true
					break
				}
			}
			if found {
				got++
			}
			return true
		})
		if got != total {
			return false
		}
	}
	return true
}
