package beliefdb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"beliefdb"
)

// loadExample applies the Sect. 2 running example to an already-open DB.
func loadExample(t *testing.T, db *beliefdb.DB) {
	t.Helper()
	for _, name := range []string{"Alice", "Bob", "Carol"} {
		if _, err := db.AddUser(name); err != nil {
			t.Fatal(err)
		}
	}
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
}

// worldFingerprint renders a belief world as a sorted, comparable string.
func worldFingerprint(t *testing.T, db *beliefdb.DB, p beliefdb.Path) string {
	t.Helper()
	entries, err := db.World(p)
	if err != nil {
		t.Fatalf("World(%v): %v", p, err)
	}
	lines := make([]string, 0, len(entries))
	for _, e := range entries {
		sign := "+"
		if e.Sign == beliefdb.Neg {
			sign = "-"
		}
		expl := "implicit"
		if e.Explicit {
			expl = "explicit"
		}
		lines = append(lines, e.Tuple.String()+sign+" "+expl)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// assertSameDB compares the full observable state of two databases: the
// replayable dump, the statement list, the representation statistics, and
// every belief world up to depth 2.
func assertSameDB(t *testing.T, want, got *beliefdb.DB) {
	t.Helper()
	wd, err := want.Dump()
	if err != nil {
		t.Fatal(err)
	}
	gd, err := got.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if wd != gd {
		t.Errorf("Dump mismatch:\n--- want ---\n%s--- got ---\n%s", wd, gd)
	}
	ws, gs := want.Stats(), got.Stats()
	if ws.TotalRows != gs.TotalRows || ws.Annotations != gs.Annotations ||
		ws.States != gs.States || ws.Users != gs.Users {
		t.Errorf("Stats mismatch:\nwant %sgot  %s", ws, gs)
	}
	for n, rows := range ws.TableRows {
		if gs.TableRows[n] != rows {
			t.Errorf("table %s: %d rows, want %d", n, gs.TableRows[n], rows)
		}
	}
	var paths []beliefdb.Path
	paths = append(paths, beliefdb.Path{})
	users := want.Users()
	for _, u := range users {
		paths = append(paths, beliefdb.Path{u})
		for _, v := range users {
			if u != v {
				paths = append(paths, beliefdb.Path{u, v})
			}
		}
	}
	for _, p := range paths {
		if w, g := worldFingerprint(t, want, p), worldFingerprint(t, got, p); w != g {
			t.Errorf("World(%v) mismatch:\n--- want ---\n%s\n--- got ---\n%s", p, w, g)
		}
	}
}

func TestOpenAtFreshAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("OpenAt database should report Durable")
	}
	loadExample(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// In-memory reference built from the same operations.
	ref, _, _, _ := openExample(t)

	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameDB(t, ref, re)

	// The recovered database accepts further mutations.
	if _, err := re.Exec(`insert into BELIEF 'Carol' Sightings values ('s3','Carol','osprey','6-15-08','Lake Forest')`); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncatesWALAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)

	walPath := filepath.Join(dir, "wal.bdb")
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("checkpoint did not shrink the WAL: %d -> %d bytes", before.Size(), after.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bdb")); err != nil {
		t.Fatalf("no snapshot after checkpoint: %v", err)
	}

	// Mutations after the checkpoint land in the (fresh) WAL tail.
	if _, err := db.Exec(`insert into BELIEF 'Carol' not Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ref, _, _, _ := openExample(t)
	if err := ref.Rebuild(); err != nil { // where the durable side checkpointed
		t.Fatal(err)
	}
	if _, err := ref.Exec(`insert into BELIEF 'Carol' not Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')`); err != nil {
		t.Fatal(err)
	}

	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameDB(t, ref, re)
}

func TestCloseMakesMutationsFailReadsWork(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db.Exec(`insert into Sightings values ('s9','x','y','z','w')`); err == nil {
		t.Error("insert after Close should fail")
	}
	if _, err := db.AddUser("Eve"); err == nil {
		t.Error("AddUser after Close should fail")
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint after Close should fail")
	}
	// Reads still serve the in-memory state.
	if stmts, err := db.Statements(); err != nil || len(stmts) != 8 {
		t.Errorf("Statements after Close: %d, %v", len(stmts), err)
	}
}

func TestOpenAtSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	bad := beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "Other", Columns: []beliefdb.Column{{Name: "k", Type: beliefdb.KindString}}},
	}}
	if _, err := beliefdb.OpenAt(dir, bad); err == nil {
		t.Error("OpenAt with a different schema should fail after a checkpoint")
	}
}

func TestInMemoryCheckpointRejected(t *testing.T) {
	db, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if db.Durable() {
		t.Error("Open database should not report Durable")
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint on an in-memory database should fail")
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close on an in-memory database should be a no-op, got %v", err)
	}
}

// TestRawSQLMutationsJournaled: the one change raw SQL may make, index
// DDL, is journaled and survives reopen.
func TestRawSQLMutationsJournaled(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)
	if _, err := db.SQL(`create ordered index Sightings_star_species on Sightings_star (species)`); err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ix, ok := re.Store().Snapshot().Table("Sightings_star").Indexes()["Sightings_star_species"]
	if !ok || !ix.Ordered() {
		t.Errorf("journaled CREATE ORDERED INDEX lost across reopen (found %v)", ok)
	}
}

// TestDurableConcurrentWriters exercises the WAL under the single-writer /
// snapshot-reader model: concurrent mutators and readers on a durable DB, then
// reopen and verify nothing was lost or duplicated. Run with -race.
func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddUser("Writer"); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				stmt := fmt.Sprintf(
					`insert into BELIEF 'Writer' Sightings values ('w%d-%d','v','sp','d','loc')`, w, i)
				if _, err := db.Exec(stmt); err != nil {
					errs <- err
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Statements(); err != nil {
					errs <- err
				}
				_ = db.Stats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	stmts, err := re.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != writers*perWriter {
		t.Errorf("recovered %d statements, want %d", len(stmts), writers*perWriter)
	}
}

// TestWALSchemaMismatchRejected: reopening a never-checkpointed directory
// under a different schema must fail loudly — the WAL's
// schema record is the directory's only schema identity before the first
// snapshot exists. (Silently replaying would discard every insert as an
// "unknown relation" no-op.)
func TestWALSchemaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)
	db.Close() // no checkpoint: no snapshot to validate against

	bad := beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "Other", Columns: []beliefdb.Column{{Name: "k", Type: beliefdb.KindString}}},
	}}
	if _, err := beliefdb.OpenAt(dir, bad); err == nil {
		t.Error("OpenAt with a different schema should fail before any checkpoint")
	}
	// The right schema still works.
	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if stmts, _ := re.Statements(); len(stmts) != 8 {
		t.Errorf("recovered %d statements, want 8", len(stmts))
	}
}

// TestDurableRejectsRawDDL: durable and in-memory databases follow one
// rule — raw SQL reads and creates indexes, and refuses table DDL and every
// write by name, together with the rest of its script.
func TestDurableRejectsRawDDL(t *testing.T) {
	durable, err := beliefdb.OpenAt(t.TempDir(), natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	mem, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	for kind, db := range map[string]*beliefdb.DB{"durable": durable, "in-memory": mem} {
		for script, kw := range map[string]string{
			`create table notes (x int)`: "CREATE TABLE",
			`drop table Users`:           "DROP TABLE",
			`create index ix on Sightings_star (sid); insert into Users values (5, 'ok')`: "INSERT",
		} {
			if _, err := db.SQL(script); err == nil || !strings.Contains(err.Error(), kw+" refused") {
				t.Errorf("%s SQL(%q) = %v, want %s refused", kind, script, err, kw)
			}
		}
		// The refused script's CREATE INDEX never ran, so the name is free.
		if _, err := db.SQL(`create index ix on Sightings_star (sid)`); err != nil {
			t.Errorf("%s CREATE INDEX: %v", kind, err)
		}
		res, err := db.SQL(`select U.uid from Users U`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: a refused script inserted %v", kind, res.Rows)
		}
	}
}

// TestRawSQLTransactionRefused: raw SQL can neither open a transaction nor
// write a row, so the registered users and the Users rows always agree,
// and belief inserts are unaffected.
func TestRawSQLTransactionRefused(t *testing.T) {
	db, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	for script, kw := range map[string]string{
		"BEGIN":                                 "BEGIN",
		"insert into Users values (50,'ghost')": "INSERT",
	} {
		if _, err := db.SQL(script); err == nil || !strings.Contains(err.Error(), kw+" refused") {
			t.Fatalf("SQL(%q) = %v, want %s refused", script, err, kw)
		}
	}
	res, err := db.SQL("select U.uid, U.name from Users U order by U.uid")
	if err != nil {
		t.Fatal(err)
	}
	var rows, users []string
	for _, row := range res.Rows {
		rows = append(rows, fmt.Sprintf("%d:%s", row[0].AsInt(), row[1].AsString()))
	}
	for _, uid := range db.Users() {
		name, _ := db.UserName(uid)
		users = append(users, fmt.Sprintf("%d:%s", uid, name))
	}
	if fmt.Sprint(rows) != fmt.Sprint(users) || fmt.Sprint(rows) != "[1:alice]" {
		t.Errorf("Users rows %v, registered users %v; want both [1:alice]", rows, users)
	}
	if _, err := db.Exec("insert into BELIEF 'alice' Sightings values ('s9','alice','owl','1-1-09','Lake')"); err != nil {
		t.Errorf("belief insert after refused raw writes: %v", err)
	}
}
