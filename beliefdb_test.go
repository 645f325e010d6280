package beliefdb_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"beliefdb"
	"beliefdb/internal/bench"
	"beliefdb/internal/gen"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

func natureSchema() beliefdb.Schema {
	return beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "Sightings", Columns: []beliefdb.Column{
			{Name: "sid", Type: beliefdb.KindString},
			{Name: "uid", Type: beliefdb.KindString},
			{Name: "species", Type: beliefdb.KindString},
			{Name: "date", Type: beliefdb.KindString},
			{Name: "location", Type: beliefdb.KindString},
		}},
		{Name: "Comments", Columns: []beliefdb.Column{
			{Name: "cid", Type: beliefdb.KindString},
			{Name: "comment", Type: beliefdb.KindString},
			{Name: "sid", Type: beliefdb.KindString},
		}},
	}}
}

func openExample(t *testing.T) (*beliefdb.DB, beliefdb.UserID, beliefdb.UserID, beliefdb.UserID) {
	t.Helper()
	db, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := db.AddUser("Alice")
	bob, _ := db.AddUser("Bob")
	carol, _ := db.AddUser("Carol")
	if _, err := db.ExecScript(`
		insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest');
		insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest');
		insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest');
		insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid');
		insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2');
		insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid');
		insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2');
		insert into BELIEF 'Bob' Comments values ('c2','purple-black feathers','s2');
	`); err != nil {
		t.Fatal(err)
	}
	return db, alice, bob, carol
}

func TestQuickstartFlow(t *testing.T) {
	db, alice, bob, carol := openExample(t)

	crow, err := db.NewTuple("Sightings", "s2", "Alice", "crow", "6-14-08", "Lake Placid")
	if err != nil {
		t.Fatal(err)
	}
	raven, _ := db.NewTuple("Sightings", "s2", "Alice", "raven", "6-14-08", "Lake Placid")

	if ok, _ := db.Believes(beliefdb.Path{alice}, crow); !ok {
		t.Error("Alice should believe the crow")
	}
	if ok, _ := db.Believes(beliefdb.Path{bob}, raven); !ok {
		t.Error("Bob should believe the raven")
	}
	if ok, _ := db.Disbelieves(beliefdb.Path{bob}, crow); !ok {
		t.Error("Bob should disbelieve the crow (unstated negative)")
	}
	if ok, _ := db.Believes(beliefdb.Path{bob, alice}, crow); !ok {
		t.Error("Bob should believe that Alice believes the crow")
	}
	if ok, _ := db.Believes(beliefdb.Path{carol}, crow); ok {
		t.Error("Carol has no reason to believe the crow (it is Alice's belief, not root content)")
	}

	res, err := db.Query(`
		select U2.name, S1.species, S2.species
		from Users U1, Users U2,
			BELIEF U1.uid Sightings S1, BELIEF U2.uid Sightings S2
		where U1.name = 'Alice' and S1.sid = S2.sid and S1.species <> S2.species`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Bob" {
		t.Errorf("conflict query = %v", res.Rows)
	}
}

func TestTypedInsertAndDelete(t *testing.T) {
	db, _, bob, _ := openExample(t)
	hawk, _ := db.NewTuple("Sightings", "s3", "Bob", "hawk", "6-15-08", "Lake Forest")
	changed, err := db.InsertBelief(beliefdb.Path{bob}, beliefdb.Pos, hawk)
	if err != nil || !changed {
		t.Fatalf("insert: %v %v", changed, err)
	}
	if ok, _ := db.Believes(beliefdb.Path{bob}, hawk); !ok {
		t.Error("typed insert lost")
	}
	changed, err = db.DeleteBelief(beliefdb.Path{bob}, beliefdb.Pos, hawk)
	if err != nil || !changed {
		t.Fatalf("delete: %v %v", changed, err)
	}
	if ok, _ := db.Believes(beliefdb.Path{bob}, hawk); ok {
		t.Error("typed delete ignored")
	}
}

func TestWorldListing(t *testing.T) {
	db, _, bob, _ := openExample(t)
	entries, err := db.World(beliefdb.Path{bob})
	if err != nil {
		t.Fatal(err)
	}
	pos, neg, explicit := 0, 0, 0
	for _, e := range entries {
		if e.Sign == beliefdb.Pos {
			pos++
		} else {
			neg++
		}
		if e.Explicit {
			explicit++
		}
	}
	if pos != 2 || neg != 2 || explicit != 4 {
		t.Errorf("Bob's world: pos=%d neg=%d explicit=%d (%v)", pos, neg, explicit, entries)
	}
}

func TestTranslateExposesSQL(t *testing.T) {
	db, _, _, _ := openExample(t)
	sql, err := db.Translate(`select S.species from BELIEF 'Bob' Sightings S`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Sightings_v", "Sightings_star", "_e"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("translated SQL missing %q: %s", frag, sql)
		}
	}
	// The translated SQL runs as-is through the internal-SQL door.
	res, err := db.SQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[raven]]" {
		t.Errorf("rows = %s, want [[raven]]", got)
	}
}

// TestTranslateRunsAsQuery: the text DB.Translate shows is what DB.Query
// runs — through the raw-SQL door it returns the same rows, in the same
// order, for the Sect. 6.2 queries and a point lookup.
func TestTranslateRunsAsQuery(t *testing.T) {
	db := benchDB(t, 400, 10)
	// An integral float literal must reach DB.SQL as a float: 1.0 / 2 is
	// 0.5, not an integer division.
	half := fmt.Sprintf("select T.sid, 1.0 / 2 AS h from BELIEF 'u1' %s T where T.sid = 'k7'", gen.DefaultRel)
	qs := []string{pointQuery, half}
	for _, q := range bench.Table2Queries() {
		qs = append(qs, q.Query)
	}
	if res, err := db.Query(half); err != nil || len(res.Rows) == 0 || !val.Equal(res.Rows[0][1], val.Float(0.5)) {
		t.Fatalf("%s: %v, %v; want h = 0.5", half, res, err)
	}
	for _, q := range qs {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sql, err := db.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.SQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s\n SQL(Translate) %d rows, Query %d rows", q, len(got.Rows), len(want.Rows))
			for i := range min(len(got.Rows), len(want.Rows)) {
				if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
					t.Errorf("row %d: SQL(Translate) %v, Query %v", i, got.Rows[i], want.Rows[i])
					break
				}
			}
		}
		if len(want.Rows) == 0 {
			t.Errorf("%s: no rows, so the comparison shows nothing", q)
		}
	}
}

// TestNegatedSelectIsReadOnly: a SELECT with a negated item translates to
// SQL holding a correlated EXISTS; script and statement classification both
// keep it on the read path, so replicas and sharded servers serve it.
func TestNegatedSelectIsReadOnly(t *testing.T) {
	db, _, _, _ := openExample(t)
	const q = `select U.name from Users U, BELIEF U.uid not Sightings S
		where S.sid = 's1' and S.uid = 'Carol' and S.species = 'bald eagle' and S.date = '6-14-08' and S.location = 'Lake Forest'`
	if ro, err := beliefdb.ReadOnlyScript(q + "; " + q); err != nil || !ro {
		t.Errorf("ReadOnlyScript = %v, %v; want read-only", ro, err)
	}
	sql, err := db.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "EXISTS (SELECT") || !query.ReadOnly(stmt) {
		t.Errorf("translated negation is not a read-only EXISTS query: %s", sql)
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Bob" {
		t.Errorf("rows = %v, want [[Bob]]", res.Rows)
	}
}

func TestStatsAndMaintenance(t *testing.T) {
	db, _, _, _ := openExample(t)
	s := db.Stats()
	if s.Annotations != 8 || s.Users != 3 || s.States != 4 || s.Overhead() <= 1 {
		t.Errorf("stats = %+v", s)
	}
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats(); got.Annotations != 8 || got.States != 4 {
		t.Errorf("post-rebuild stats = %+v", got)
	}
	stmts, err := db.Statements()
	if err != nil || len(stmts) != 8 {
		t.Errorf("statements = %d, %v", len(stmts), err)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	db, _, _, _ := openExample(t)
	script, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the dump into a fresh database reproduces the content.
	db2, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"Alice", "Bob", "Carol"} {
		db2.AddUser(n)
	}
	if _, err := db2.ExecScript(script); err != nil {
		t.Fatalf("replay failed: %v\nscript:\n%s", err, script)
	}
	s1, _ := db.Statements()
	s2, _ := db2.Statements()
	if len(s1) != len(s2) {
		t.Fatalf("statement counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].String() != s2[i].String() {
			t.Errorf("statement %d differs: %s vs %s", i, s1[i], s2[i])
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := beliefdb.Open(beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "Users", Columns: []beliefdb.Column{{Name: "x", Type: beliefdb.KindInt}}},
	}}); err == nil {
		t.Error("reserved relation name accepted")
	}
}

func TestNewTupleConversions(t *testing.T) {
	db, err := beliefdb.Open(beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "R", Columns: []beliefdb.Column{
			{Name: "k", Type: beliefdb.KindString},
			{Name: "n", Type: beliefdb.KindInt},
			{Name: "x", Type: beliefdb.KindFloat},
			{Name: "b", Type: beliefdb.KindBool},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tup, err := db.NewTuple("R", "key", 7, 2.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if tup.Vals[1].AsInt() != 7 || tup.Vals[2].AsFloat() != 2.5 || !tup.Vals[3].AsBool() {
		t.Errorf("tuple = %v", tup)
	}
	if _, err := db.NewTuple("R", struct{}{}); err == nil {
		t.Error("unsupported type accepted")
	}
}
