package store

// Durability of journaled index DDL: CREATE [ORDERED] INDEX issued through
// raw SQL on a durable store must survive a WAL-replay reopen, survive a
// checkpoint (snapshot v2 records index definitions), and reach replicas
// through the shipped WAL.

import (
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// findIndex returns the named index of an internal table, or nil.
func findIndex(st *Store, table, name string) ordIndexInfo {
	t := st.cat.Table(table)
	if t == nil {
		return ordIndexInfo{}
	}
	ix, ok := t.Indexes()[name]
	if !ok {
		return ordIndexInfo{}
	}
	return ordIndexInfo{exists: true, ordered: ix.Ordered(), keys: ix.Len()}
}

type ordIndexInfo struct {
	exists  bool
	ordered bool
	keys    int
}

func seedSightings(t *testing.T, st *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s := core.Statement{Sign: core.Pos, Tuple: core.Tuple{
			Rel: "S", Vals: []val.Value{val.Str(string(rune('a' + i%26))), val.Str("sp")},
		}}
		s.Tuple.Vals[0] = val.Str(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if _, err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableOrderedIndexDDL(t *testing.T) {
	dir := t.TempDir()
	rels := crashRels()

	st, err := OpenAt(dir, rels)
	if err != nil {
		t.Fatal(err)
	}
	seedSightings(t, st, 10)
	if _, err := st.SQL("CREATE ORDERED INDEX S_star_species ON S_star (species, sid)"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE INDEX S_v_expl ON S_v (e)"); err != nil {
		t.Fatal(err)
	}
	seedSightings(t, st, 4) // maintained through inserts after creation
	wantKeys := findIndex(st, "S_star", "S_star_species").keys
	if wantKeys == 0 {
		t.Fatal("ordered index empty after seeding")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen #1: the CREATE statements replay from the WAL.
	st, err = OpenAt(dir, rels)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		table, name string
		ordered     bool
	}{
		{"S_star", "S_star_species", true},
		{"S_v", "S_v_expl", false},
	} {
		info := findIndex(st, tc.table, tc.name)
		if !info.exists {
			t.Fatalf("after WAL replay, index %s.%s is gone", tc.table, tc.name)
		}
		if info.ordered != tc.ordered {
			t.Fatalf("after WAL replay, index %s.%s ordered=%v, want %v", tc.table, tc.name, info.ordered, tc.ordered)
		}
	}
	if got := findIndex(st, "S_star", "S_star_species").keys; got != wantKeys {
		t.Fatalf("after WAL replay, ordered index has %d keys, want %d", got, wantKeys)
	}

	// Checkpoint folds the definitions into the snapshot and truncates the
	// WAL; reopen #2 exercises the snapshot-reload path.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenAt(dir, rels)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	info := findIndex(st, "S_star", "S_star_species")
	if !info.exists || !info.ordered {
		t.Fatalf("after checkpoint reload, ordered index state = %+v", info)
	}
	if info.keys != wantKeys {
		t.Fatalf("after checkpoint reload, ordered index has %d keys, want %d", info.keys, wantKeys)
	}
	if got := findIndex(st, "S_v", "S_v_expl"); !got.exists || got.ordered {
		t.Fatalf("after checkpoint reload, hash index state = %+v", got)
	}

	// The rebuilt index answers queries: an EXPLAIN proves the planner sees
	// it and a range query runs through it.
	res, err := st.SQL("EXPLAIN SELECT S.sid FROM S_star S WHERE S.species >= 'sp' ORDER BY S.species LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[2].AsString() != "" && row[1].AsString() == "ordered walk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN does not use the reloaded ordered index: %v", res.Rows)
	}
}

func TestReplicaAppliesIndexDDL(t *testing.T) {
	replica, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	seedSightings(t, replica, 6)
	sql := "CREATE ORDERED INDEX S_star_species ON S_star (species)"
	if err := replica.ApplyReplicated(wal.SQL(sql)); err != nil {
		t.Fatal(err)
	}
	info := findIndex(replica, "S_star", "S_star_species")
	if !info.exists || !info.ordered || info.keys == 0 {
		t.Fatalf("replica did not build the ordered index: %+v", info)
	}
	// Replays are idempotent-by-outcome: a duplicate CREATE INDEX is a
	// deterministic no-op error, not a replication failure.
	if err := replica.ApplyReplicated(wal.SQL(sql)); err != nil {
		t.Fatalf("duplicate DDL replay errored structurally: %v", err)
	}
}
