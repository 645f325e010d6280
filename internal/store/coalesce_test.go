package store

// Tests for the multi-batch group commit (ApplyBatchGroupTokens) and the
// Coalescer that feeds it: equivalence with sequential ApplyBatch calls,
// per-batch atomicity inside a shared round, single-fsync accounting,
// crash-recovery of rounds, and concurrent-submitter stress.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"beliefdb/internal/core"
)

// groupFixture opens a store (durable when dir != "") with users u1, u2.
func groupFixture(t *testing.T, dir string) *Store {
	t.Helper()
	var st *Store
	var err error
	if dir == "" {
		st, err = Open(crashRels())
	} else {
		st, err = OpenAt(dir, crashRels())
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"u1", "u2"} {
		if _, err := st.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestApplyBatchGroupMatchesSequential(t *testing.T) {
	groups := [][]BatchOp{
		{bIns(nil, core.Pos, "S", "k1", "bald eagle"), bIns(core.Path{1}, core.Neg, "S", "k1", "bald eagle")},
		{bIns(core.Path{2}, core.Pos, "S", "k2", "crow")},
		{bIns(core.Path{2, 1}, core.Pos, "C", "c1", "found feathers"), bDel(core.Path{2}, core.Pos, "S", "k2", "crow")},
		{bDel(nil, core.Pos, "S", "absent", "x")}, // no-op delete group
	}

	grouped := groupFixture(t, "")
	outs := grouped.ApplyBatchGroupTokens(groups, nil)

	seq := groupFixture(t, "")
	for i, g := range groups {
		res, err := seq.ApplyBatch(g)
		if err != nil {
			t.Fatalf("sequential group %d: %v", i, err)
		}
		if outs[i].Err != nil {
			t.Fatalf("grouped %d failed: %v", i, outs[i].Err)
		}
		if fmt.Sprint(outs[i].Res) != fmt.Sprint(res) {
			t.Errorf("group %d result mismatch: grouped %+v sequential %+v", i, outs[i].Res, res)
		}
	}
	assertSameStore(t, "grouped vs sequential", seq, grouped)
}

// TestApplyBatchGroupIsolatesFailures: one batch's conflict rolls back that
// batch alone; its neighbours in the same round commit, exactly as if each
// had gone through its own ApplyBatch call.
func TestApplyBatchGroupIsolatesFailures(t *testing.T) {
	st := groupFixture(t, "")
	outs := st.ApplyBatchGroupTokens([][]BatchOp{
		{bIns(nil, core.Pos, "S", "k1", "bald eagle")},
		// Same world, same key, both signs: a Γ-conflict mid-batch.
		{bIns(core.Path{1}, core.Pos, "S", "k2", "crow"), bIns(core.Path{1}, core.Neg, "S", "k2", "crow")},
		{bIns(core.Path{2}, core.Pos, "S", "k3", "raven")},
		{bIns(nil, core.Pos, "X", "k4", "nope")}, // unknown relation: fails validation
		nil,                                      // empty batch: vacuous success
	}, nil)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy groups failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Error("conflicting group committed")
	}
	if outs[3].Err == nil || !strings.Contains(outs[3].Err.Error(), "unknown relation") {
		t.Errorf("invalid group error = %v", outs[3].Err)
	}
	if outs[4].Err != nil || outs[4].Res.Applied != 0 {
		t.Errorf("empty group outcome = %+v", outs[4])
	}

	stmts, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("store holds %d statements, want the 2 from the healthy groups: %v", len(stmts), stmts)
	}
	// Nothing from the rolled-back group leaked.
	for _, s := range stmts {
		if s.Tuple.Key().AsString() == "k2" {
			t.Errorf("rolled-back statement leaked: %v", s)
		}
	}
}

// TestApplyBatchGroupSingleFsync: a round of N batches costs one WAL sync
// total, and recovery replays every group with its individual outcome.
func TestApplyBatchGroupSingleFsync(t *testing.T) {
	dir := t.TempDir()
	st := groupFixture(t, dir)
	groups := [][]BatchOp{
		{bIns(nil, core.Pos, "S", "k1", "bald eagle")},
		{bIns(core.Path{1}, core.Pos, "S", "k2", "crow"), bIns(core.Path{1}, core.Neg, "S", "k2", "crow")}, // rolls back
		{bIns(core.Path{2}, core.Pos, "C", "c1", "feathers"), bIns(core.Path{2, 1}, core.Pos, "S", "k3", "osprey")},
	}
	syncs0 := st.WALSyncs()
	outs := st.ApplyBatchGroupTokens(groups, nil)
	if got := st.WALSyncs() - syncs0; got != 1 {
		t.Errorf("round issued %d fsyncs, want 1", got)
	}
	if outs[0].Err != nil || outs[2].Err != nil || outs[1].Err == nil {
		t.Fatalf("outcomes: %+v", outs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash replay re-runs each journaled group independently and reaches
	// the same per-group outcomes.
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	shadow := groupFixture(t, "")
	shadow.ApplyBatchGroupTokens(groups, nil)
	assertSameStore(t, "recovered round", shadow, re)
}

// TestApplyBatchGroupInsideTxn: a round cannot run inside a raw-SQL
// transaction, because none can be opened — BEGIN is refused by name and
// the round that follows commits every batch.
func TestApplyBatchGroupInsideTxn(t *testing.T) {
	st := groupFixture(t, "")
	if _, err := st.SQL("BEGIN"); err == nil || !strings.Contains(err.Error(), "transaction") {
		t.Fatalf("SQL(BEGIN) = %v, want a refusal", err)
	}
	outs := st.ApplyBatchGroupTokens([][]BatchOp{
		{bIns(nil, core.Pos, "S", "k1", "x")},
		{bIns(nil, core.Pos, "S", "k2", "y")},
	}, nil)
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("batch %d after refused BEGIN: %v", i, out.Err)
		}
	}
	if _, err := st.SQL("ROLLBACK"); err == nil {
		t.Fatal("SQL(ROLLBACK) accepted")
	}
	if got := st.Len(); got != 2 {
		t.Errorf("ROLLBACK undid the round: %d statements, want 2", got)
	}
}

// TestCoalescerConcurrentSubmit: many goroutines submitting through one
// Coalescer all commit, the store ends in the same state as sequential
// application, and the WAL paid fewer fsyncs than batches (the whole point
// of coalescing). Run with -race.
func TestCoalescerConcurrentSubmit(t *testing.T) {
	// Waves of simultaneous submissions (released together by a start
	// barrier) so the batches genuinely overlap, plus a gathering window:
	// without the window, whether two batches share a round is a
	// scheduling accident (an fsync on fast storage can finish before the
	// next submitter gets the CPU, especially under -race on one core) and
	// the amortization assertion gets flaky.
	const workers, waves = 16, 8
	dir := t.TempDir()
	st := groupFixture(t, dir)
	defer st.Close()
	c := NewCoalescer(st)
	c.SetWindow(200 * time.Microsecond)

	syncs0 := st.WALSyncs()
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				key := fmt.Sprintf("w%d-%d", wave, w)
				res, err := c.SubmitToken([]BatchOp{bIns(nil, core.Pos, "S", key, "sp")}, "")
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.Applied != 1 || res.Changed != 1 {
					errs <- fmt.Errorf("worker %d: res %+v", w, res)
				}
			}(w)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	total := workers * waves
	if n := st.Len(); n != total {
		t.Fatalf("store holds %d statements, want %d", n, total)
	}
	syncs := st.WALSyncs() - syncs0
	if syncs >= uint64(total) {
		t.Errorf("%d batches cost %d fsyncs; coalescing saved nothing", total, syncs)
	}
	t.Logf("%d single-statement batches committed in %d fsyncs (%.2f fsyncs/batch)",
		total, syncs, float64(syncs)/float64(total))
}

// TestCoalescerClose: Submit after Close fails; already-queued work is
// never abandoned (the in-flight leader drains it).
func TestCoalescerClose(t *testing.T) {
	st := groupFixture(t, "")
	c := NewCoalescer(st)
	if _, err := c.SubmitToken([]BatchOp{bIns(nil, core.Pos, "S", "k", "x")}, ""); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, err := c.SubmitToken([]BatchOp{bIns(nil, core.Pos, "S", "k2", "x")}, ""); err != ErrCoalescerClosed {
		t.Fatalf("Submit after Close: %v", err)
	}
	if n := st.Len(); n != 1 {
		t.Errorf("store holds %d statements, want 1", n)
	}
}

// TestCoalescerCloseSkipsWindow: a closed coalescer must not linger the
// gathering window for the rounds that drain its backlog — nothing new can
// join a round after Close, so the sleep would be a pure stall. Regression
// test for Close taking (rounds remaining × window) to return: with a
// multi-round backlog and a 50ms window, Close must come back in well
// under one window, not three.
func TestCoalescerCloseSkipsWindow(t *testing.T) {
	st := groupFixture(t, "")
	c := NewCoalescer(st)
	const window = 50 * time.Millisecond
	c.SetWindow(window)

	// Stall the leader's first round inside ApplyBatchGroupTokens by
	// holding the writer lock, and pile up a backlog deep enough to need
	// several more rounds after it, the last of them a single batch — the
	// shallow queue an open coalescer would linger on.
	const backlog = 3*maxCoalescedBatches + 1
	st.mu.Lock()
	var wg sync.WaitGroup
	wg.Add(1 + backlog)
	submit := func(i int) {
		defer wg.Done()
		// A straggler may be rejected by the racing Close; both
		// outcomes are fine, the test only measures Close latency.
		c.SubmitToken([]BatchOp{bIns(nil, core.Pos, "S", fmt.Sprintf("w%d", i), "x")}, "")
	}
	state := func() (leading bool, queued int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.running, len(c.queue)
	}
	// The first submission alone, until the leader has carved it off as
	// its first round (it is now blocked on the writer lock, past any
	// pre-Close linger); how many submissions a round carved mid-pile-up
	// would take depends on scheduling. Then the backlog, until every
	// submission is queued, before releasing the leader and timing Close.
	go submit(backlog)
	for leading, queued := state(); !leading || queued != 0; leading, queued = state() {
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < backlog; i++ {
		go submit(i)
	}
	for _, queued := state(); queued != backlog; _, queued = state() {
		time.Sleep(100 * time.Microsecond)
	}
	st.mu.Unlock()

	start := time.Now()
	c.Close()
	if elapsed := time.Since(start); elapsed >= window {
		t.Fatalf("Close took %v draining the backlog; a closed coalescer must skip the %v gathering window", elapsed, window)
	}
	wg.Wait()
}

// TestCoalescerCloseDrainsAcceptedBatches: Close blocks until accepted
// batches commit, so racing Close against submitters yields exactly two
// outcomes — committed, or rejected with ErrCoalescerClosed — never a
// batch accepted and then failed by the store closing underneath it.
func TestCoalescerCloseDrainsAcceptedBatches(t *testing.T) {
	st := groupFixture(t, t.TempDir())
	c := NewCoalescer(st)
	c.SetWindow(100 * time.Microsecond)

	const workers = 12
	type outcome struct {
		committed bool
		err       error
	}
	results := make(chan outcome, workers*100)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.SubmitToken([]BatchOp{bIns(nil, core.Pos, "S", fmt.Sprintf("d%d-%d", w, i), "x")}, "")
				results <- outcome{committed: err == nil, err: err}
				if err != nil {
					return
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	c.Close()
	// The drain guarantee: by the time Close returns, no accepted batch is
	// still in flight, so closing the store cannot fail one.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(results)

	committed := 0
	for o := range results {
		if o.committed {
			committed++
		} else if o.err != ErrCoalescerClosed {
			t.Fatalf("batch failed with %v; accepted work was abandoned", o.err)
		}
	}
	if got := st.Len(); got != committed {
		t.Fatalf("store holds %d statements, %d batches reported committed", got, committed)
	}
}
