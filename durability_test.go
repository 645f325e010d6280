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

func TestRawSQLMutationsJournaled(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadExample(t, db)
	// A power-user write against the internal schema must survive reopen.
	if _, err := db.SQL(`insert into Users values (99, 'ghost')`); err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.SQL(`select U.name from Users U where U.uid = 99`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "ghost" {
		t.Errorf("raw-SQL insert lost across reopen: %v", res.Rows)
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

// TestDurableRejectsRawDDL: table-changing SQL is refused on a durable
// database — the snapshot format persists only the relations declared at
// open time, so journaled CREATE/DROP TABLE would be silently dropped at
// the next checkpoint. Index DDL is the exception: snapshot v2 records
// index definitions, so CREATE INDEX is journaled and allowed.
func TestDurableRejectsRawDDL(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ddl := range []string{
		`create table notes (x int)`,
		`drop table Users`,
		`insert into Users values (5, 'ok'); create table sneaky (x int)`,
	} {
		if _, err := db.SQL(ddl); err == nil {
			t.Errorf("durable SQL(%q) should be rejected", ddl)
		}
	}
	if _, err := db.SQL(`create index ix on Sightings_star (sid)`); err != nil {
		t.Errorf("durable CREATE INDEX should be journaled, got %v", err)
	}
	// The batch with the sneaky CREATE was aborted before its INSERT ran.
	res, err := db.SQL(`select U.uid from Users U where U.uid = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Error("aborted batch still inserted a row")
	}
	// In-memory databases keep full raw-SQL freedom.
	mem, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.SQL(`create table notes (x int)`); err != nil {
		t.Errorf("in-memory CREATE TABLE should work: %v", err)
	}
}

// TestRawSQLTransactionRefused: a raw-SQL transaction would belong to no
// session — any caller's COMMIT ends it, and every reader sees its rows
// before it commits — so BEGIN is refused, a raw write is its own commit,
// and the logical users and belief inserts are unaffected by it.
func TestRawSQLTransactionRefused(t *testing.T) {
	db, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SQL("BEGIN"); err == nil || !strings.Contains(err.Error(), "a script is one transaction") {
		t.Fatalf("SQL(BEGIN) = %v, want a refusal", err)
	}
	if _, err := db.SQL("insert into Users values (50,'ghost')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("select U.name from Users U")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range res.Rows {
		names = append(names, row[0].String())
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[alice ghost]" {
		t.Errorf("Users rows = %v, want [alice ghost]", names)
	}
	if got := db.Users(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Users() = %v, want [1]", got)
	}
	if _, err := db.Exec("insert into BELIEF 'alice' Sightings values ('s9','alice','owl','1-1-09','Lake')"); err != nil {
		t.Errorf("belief insert after a raw write: %v", err)
	}
}
