package beliefdb_test

// A BeliefSQL DELETE or UPDATE whose WHERE clause matches several explicit
// statements is one atomic batch: one WAL commit, one published snapshot,
// all-or-nothing under conflicts and crashes. (It used to commit once per
// matched statement.)

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"beliefdb"
	"beliefdb/internal/store"
	"beliefdb/internal/wal"
)

// loadCrows gives Alice one explicit crow sighting per key, each at its own
// location (so no two of them become the same tuple when an UPDATE rewrites
// their keys).
func loadCrows(t *testing.T, db *beliefdb.DB, keys ...string) {
	t.Helper()
	if _, err := db.AddUser("Alice"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := db.Exec(`insert into BELIEF 'Alice' Sightings values ('` + k + `','Alice','crow','6-14-08','Lake ` + k + `')`); err != nil {
			t.Fatal(err)
		}
	}
}

const deleteCrows = `delete from BELIEF 'Alice' Sightings where Sightings.species = 'crow'`

func mustDump(t *testing.T, db *beliefdb.DB) string {
	t.Helper()
	d, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestUpdateConflictLeavesNothingChanged(t *testing.T) {
	db, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadCrows(t, db, "s1", "s2")
	before := mustDump(t, db)
	// Both crows move to key s9: whichever is replaced second finds an
	// explicit positive already holding the key (Γ1).
	_, err = db.Exec(`update BELIEF 'Alice' Sightings set sid = 's9' where Sightings.species = 'crow'`)
	if err == nil || !strings.Contains(err.Error(), "Γ1") {
		t.Fatalf("update = %v, want a Γ1 conflict", err)
	}
	if after := mustDump(t, db); after != before {
		t.Errorf("failed UPDATE left its first target changed:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

func TestMultiRowDeleteIsOneCommit(t *testing.T) {
	db, err := beliefdb.OpenAt(t.TempDir(), natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadCrows(t, db, "s1", "s2", "s3", "s4")

	// A reader pinning snapshots throughout must see all four crows or
	// none, never a strict subset.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			stmts, err := db.Statements()
			if err != nil {
				t.Error(err)
				return
			}
			if len(stmts) != 0 && len(stmts) != 4 {
				t.Errorf("reader observed %d of 4 statements deleted", 4-len(stmts))
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	syncs := db.WALSyncs()
	res, err := db.Exec(deleteCrows)
	close(stop)
	wg.Wait()
	if err != nil || res.Affected != 4 {
		t.Fatalf("delete: %+v, %v", res, err)
	}
	if got := db.WALSyncs() - syncs; got != 1 {
		t.Errorf("a 4-statement DELETE cost %d fsyncs, want 1", got)
	}
}

func TestMultiRowDeleteCrashIsAllOrNothing(t *testing.T) {
	base := t.TempDir()
	db, err := beliefdb.OpenAt(base, natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadCrows(t, db, "s1", "s2", "s3")
	all := mustDump(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walImage, err := os.ReadFile(filepath.Join(base, store.WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := beliefdb.Open(natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	loadCrows(t, empty)
	none := mustDump(t, empty)

	defer store.SetWALSinkWrapper(nil)
	for limit, committed := int64(0), false; !committed; limit++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, store.WALFileName), walImage, 0o644); err != nil {
			t.Fatal(err)
		}
		// The process dies after limit more bytes reach the WAL.
		store.SetWALSinkWrapper(func(s wal.Sink) wal.Sink { return &wal.LimitSink{W: s, Limit: limit} })
		db, err := beliefdb.OpenAt(dir, natureSchema())
		if err != nil {
			t.Fatal(err)
		}
		_, err = db.Exec(deleteCrows)
		committed = err == nil
		db.Close()

		store.SetWALSinkWrapper(nil)
		re, err := beliefdb.OpenAt(dir, natureSchema())
		if err != nil {
			t.Fatalf("limit %d: reopen: %v", limit, err)
		}
		want := all
		if committed {
			want = none
		}
		if got := mustDump(t, re); got != want {
			t.Errorf("limit %d (committed=%v): recovered a partial DELETE:\n%s", limit, committed, got)
		}
		re.Close()
		if limit > int64(len(walImage)) {
			t.Fatal("the DELETE never committed")
		}
	}
}
