package store_test

// Deterministic tests of the MVCC snapshot-read contract: a reader pins
// one published epoch and keeps seeing exactly that epoch no matter what
// commits underneath it, and a parked reader never delays a writer's
// commit (including its WAL fsync). The stress counterpart lives in
// concurrency_test.go and at the repository root.

import (
	"testing"
	"time"

	"beliefdb/internal/core"
	"beliefdb/internal/store"
)

// TestPinnedSnapshotIsolation: a reader that pins a snapshot before a
// commit must keep resolving against the pinned epoch afterwards — row
// counts frozen mid-traversal — while fresh reads observe the new commit.
// The choreography is fully deterministic: the reader pins, hands control
// to the writer, waits for the commit to be acknowledged, and only then
// re-reads its pinned tables.
func TestPinnedSnapshotIsolation(t *testing.T) {
	st, err := store.Open([]store.Relation{stressRel()})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"u1", "u2"} {
		if _, err := st.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Insert(core.Statement{Sign: core.Pos, Tuple: stressTuple("k0", "v0")}); err != nil {
		t.Fatal(err)
	}

	pinned := make(chan struct{})
	committed := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		cat := st.Snapshot()
		vBefore := cat.Table("R_v").Len()
		dBefore := cat.Table("_d").Len()
		close(pinned)
		<-committed // the writer has fully committed by now
		if got := cat.Table("R_v").Len(); got != vBefore {
			t.Errorf("pinned snapshot saw R_v grow %d -> %d across a later commit", vBefore, got)
		}
		if got := cat.Table("_d").Len(); got != dBefore {
			t.Errorf("pinned snapshot saw _d grow %d -> %d across a later commit", dBefore, got)
		}
		close(readerDone)
	}()

	<-pinned
	// Commit into a fresh belief world: grows R_v, _d, _e and _s. The
	// reader holds no lock, so this cannot deadlock or block.
	stmt := core.Statement{Path: core.Path{1, 2}, Sign: core.Pos, Tuple: stressTuple("k1", "v1")}
	if _, err := st.Insert(stmt); err != nil {
		t.Fatal(err)
	}
	// A read pinned after the commit sees it.
	if ok, err := st.Entails(stmt.Path, stmt.Tuple, core.Pos); err != nil || !ok {
		t.Fatalf("fresh read misses the committed statement (ok=%v, err=%v)", ok, err)
	}
	close(committed)
	<-readerDone
}

// TestParkedReaderDoesNotDelayCommit: a reader parked indefinitely inside
// a snapshot read must not delay a durable commit — the writer acquires
// its lock, appends, and fsyncs while the reader is still parked. Under a
// reader-writer mutex this test deadlocks (the Insert waits out the
// reader) and fails its watchdog.
func TestParkedReaderDoesNotDelayCommit(t *testing.T) {
	st, err := store.OpenAt(t.TempDir(), []store.Relation{stressRel()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AddUser("u1"); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		cat := st.Snapshot()
		close(parked)
		<-release
		_ = cat.Table("R_v").Len() // the pin outlived the commit
		close(readerDone)
	}()
	<-parked

	syncsBefore := st.WALSyncs()
	insertDone := make(chan error, 1)
	go func() {
		_, err := st.Insert(core.Statement{Sign: core.Pos, Tuple: stressTuple("k", "v")})
		insertDone <- err
	}()
	select {
	case err := <-insertDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("durable commit stalled behind a parked snapshot reader")
	}
	if got := st.WALSyncs(); got <= syncsBefore {
		t.Errorf("commit acknowledged without an fsync (syncs %d -> %d)", syncsBefore, got)
	}
	close(release)
	<-readerDone
}
