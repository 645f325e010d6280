package replication

// Deterministic lag / catchup / rotation / failover tests over the
// in-process Cluster. Every test quiesces ingest before asserting
// convergence, compares whole-database fingerprints (Dump + Stats + per-user
// worlds), and runs clean under -race — the CI race job exercises them.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/client"
)

func testSchema() beliefdb.Schema {
	return beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "R", Columns: []beliefdb.Column{
			{Name: "k", Type: beliefdb.KindString},
			{Name: "v", Type: beliefdb.KindString},
		}},
	}}
}

// startCluster starts a cluster rooted in a test temp dir and tears it
// down on cleanup.
func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Schema.Relations == nil {
		cfg.Schema = testSchema()
	}
	c, err := Start(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return c
}

func mustConverge(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.EqualState(); err != nil {
		t.Fatal(err)
	}
}

// batchScript builds an atomic batch of n mixed inserts tagged with prefix:
// ground-truth rows plus per-user positive and negative beliefs, the same
// mix the group-commit tests use.
func batchScript(prefix string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "insert into R values ('%s-%d','x'); ", prefix, i)
		fmt.Fprintf(&sb, "insert into BELIEF 'u1' not R values ('%s-%d','x'); ", prefix, i)
	}
	return sb.String()
}

func TestReplicaConvergence(t *testing.T) {
	c := startCluster(t, Config{Replicas: 2})
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()

	// Mixed ingest through the routed client: user registration, atomic
	// batches, and single-statement writes.
	for _, name := range []string{"u1", "u2"} {
		if _, err := rt.AddUser(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.ExecBatch(ctx, batchScript(fmt.Sprintf("b%d", i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Exec(ctx, "insert into BELIEF 'u2' R values ('solo','y');"); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)

	// Read-your-writes through the routed client: served by a replica (no
	// fallback) and observing every acknowledged write.
	res, err := rt.Query(ctx, "select * from BELIEF 'u2' R;")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if fmt.Sprintf("%v", row[0]) == "solo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("routed read missed acknowledged write: %+v", res.Rows)
	}
	if n := rt.Fallbacks(); n != 0 {
		t.Fatalf("converged replica reads fell back %d times", n)
	}

	// Replicas are read-only: a direct write is refused with the
	// read-only code, and the refusal changes nothing.
	rep, err := client.Dial(c.ReplicaAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Exec(ctx, "insert into R values ('sneak','w');"); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("replica write: got %v, want ErrReadOnly", err)
	}
	if _, err := rep.ExecBatch(ctx, "insert into R values ('sneak','w');"); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("replica batch: got %v, want ErrReadOnly", err)
	}
	if err := c.EqualState(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaBoundedLagUnderStreamingIngest(t *testing.T) {
	c := startCluster(t, Config{Replicas: 2})
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.AddUser(ctx, "u1"); err != nil {
		t.Fatal(err)
	}

	// Stream batches back-to-back; after every few, require each replica
	// to come back under a small bound quickly — the stream keeps up with
	// ingest instead of drifting unboundedly behind. Each 4-insert batch
	// is 9 WAL records (marker + members), so the bound is ~2 batches.
	const (
		rounds    = 24
		perBatch  = 4
		checkEach = 6
		lagBound  = 2 * (2*perBatch + 1)
	)
	var maxLag uint64
	for i := 0; i < rounds; i++ {
		if _, err := rt.ExecBatch(ctx, batchScript(fmt.Sprintf("s%d", i), perBatch)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			lag, err := c.Lag(r)
			if err != nil {
				t.Fatal(err)
			}
			if lag > maxLag {
				maxLag = lag
			}
		}
		if (i+1)%checkEach != 0 {
			continue
		}
		deadline := time.Now().Add(5 * time.Second)
		for r := 0; r < 2; r++ {
			for {
				lag, err := c.Lag(r)
				if err != nil {
					t.Fatal(err)
				}
				if lag <= lagBound {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica%d lag %d still above bound %d after batch %d", r, lag, lagBound, i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	t.Logf("max sampled lag: %d records (bound %d)", maxLag, lagBound)
	mustConverge(t, c)
}

func TestReplicaRestartCatchup(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1})
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.AddUser(ctx, "u1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := rt.ExecBatch(ctx, batchScript(fmt.Sprintf("pre%d", i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	mustConverge(t, c)

	// Restart the replica; writes land while it is down.
	if err := c.RestartReplica(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := rt.ExecBatch(ctx, batchScript(fmt.Sprintf("post%d", i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	mustConverge(t, c)

	// The restarted replica recovered from its own snapshot + WAL and
	// resumed the stream from its persisted cursor — it never needed the
	// primary to re-bootstrap it.
	if n := c.Follower(0).Resyncs(); n != 0 {
		t.Fatalf("restart catchup took %d snapshot resyncs, want 0", n)
	}
}

func TestReplicaFreshBootstrapAfterCursorLoss(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1})
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.AddUser(ctx, "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ExecBatch(ctx, batchScript("seed", 5)); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)

	// Losing the cursor (but not the data) rewinds the replica to record 0
	// of the primary's epoch: the whole epoch is re-delivered into a store
	// that already applied it. Convergence to an equal fingerprint — no
	// duplicated rows, no double-applied batches — is the idempotent-apply
	// guarantee; no snapshot re-bootstrap is needed while the epoch still
	// matches.
	if err := c.replicas[0].stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplicaCursor(0); err != nil {
		t.Fatal(err)
	}
	if err := c.restartStopped(0); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)
	if n := c.Follower(0).Resyncs(); n != 0 {
		t.Fatalf("same-epoch cursor loss took %d snapshot resyncs, want re-streaming", n)
	}
}

func TestCheckpointRotationResync(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1})
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.AddUser(ctx, "u1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.ExecBatch(ctx, batchScript(fmt.Sprintf("e1-%d", i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	mustConverge(t, c)

	// Checkpoint rotates the primary's WAL epoch and truncates the log the
	// replica was tailing; the follower must notice, re-bootstrap from a
	// snapshot at the new epoch, and land byte-identical.
	if err := rt.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.ExecBatch(ctx, batchScript(fmt.Sprintf("e2-%d", i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	mustConverge(t, c)
	if n := c.Follower(0).Resyncs(); n < 1 {
		t.Fatalf("epoch rotation crossed without a resync (%d)", n)
	}

	// A second rotation while already resynced behaves the same.
	if err := rt.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ExecBatch(ctx, batchScript("e3", 3)); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)
}

func TestStaleReadFallback(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1, Proxy: true})
	// Writes go straight to the primary; only the replica's follow stream
	// runs through the proxy, so blackholing it freezes replication while
	// the primary keeps acknowledging writes.
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.AddUser(ctx, "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ExecBatch(ctx, batchScript("base", 3)); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)

	c.Proxy().Blackhole(true)
	if _, err := rt.Exec(ctx, "insert into R values ('fresh','z');"); err != nil {
		t.Fatal(err)
	}

	// The replica has not applied the write; the watermark read refuses
	// there and the routed client silently serves it from the primary.
	res, err := rt.Query(ctx, "select * from R;")
	if err != nil {
		t.Fatal(err)
	}
	if !hasKey(res, "fresh") {
		t.Fatalf("read-your-writes violated during stall: %+v", res.Rows)
	}
	if n := rt.Fallbacks(); n != 1 {
		t.Fatalf("stale read fell back %d times, want 1", n)
	}

	// A lag-tolerant read is still served by the stalled replica — no
	// watermark, no fallback — and legitimately misses the fresh row.
	stale, err := rt.QueryStale(ctx, "select * from R;")
	if err != nil {
		t.Fatal(err)
	}
	if hasKey(stale, "fresh") {
		t.Fatalf("stalled replica served a row it cannot have: %+v", stale.Rows)
	}
	if n := rt.Fallbacks(); n != 1 {
		t.Fatalf("stale-tolerant read fell back (total %d)", n)
	}

	// The replica's own refusal is observable directly as ErrStaleRead.
	rep, err := client.Dial(c.ReplicaAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.QueryAt(ctx, "select * from R;", rt.Watermark()); !errors.Is(err, client.ErrStaleRead) {
		t.Fatalf("direct stale read: got %v, want ErrStaleRead", err)
	}

	// Heal the stream: stop discarding and sever the wedged conn so the
	// follower redials immediately instead of waiting out its stall timer.
	c.Proxy().Blackhole(false)
	c.Proxy().DropActive()
	mustConverge(t, c)
	res, err = rt.Query(ctx, "select * from R;")
	if err != nil {
		t.Fatal(err)
	}
	if !hasKey(res, "fresh") {
		t.Fatalf("converged replica missing the row: %+v", res.Rows)
	}
	if n := rt.Fallbacks(); n != 1 {
		t.Fatalf("converged replica still falling back (total %d)", n)
	}
}

func hasKey(res *client.Result, key string) bool {
	for _, row := range res.Rows {
		if len(row) > 0 && fmt.Sprintf("%v", row[0]) == key {
			return true
		}
	}
	return false
}

func TestFailoverExactlyOnce(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1, Proxy: true})
	// Both the client and the follow stream run through the proxy: killing
	// the primary behind it looks like a crashed process to everyone.
	rt, err := c.Routed(c.ProxyAddr(), client.Options{
		MaxRetries:      100,
		RetryBackoff:    20 * time.Millisecond,
		RetryMaxBackoff: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.AddUser(ctx, "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ExecBatch(ctx, batchScript("pre", 4)); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)

	if err := c.KillPrimary(); err != nil {
		t.Fatal(err)
	}

	// A write issued during the outage retries (same idempotency token on
	// every attempt) until the primary returns.
	batchDone := make(chan error, 1)
	go func() {
		_, err := rt.ExecBatch(ctx, batchScript("during", 4))
		batchDone <- err
	}()
	time.Sleep(200 * time.Millisecond)
	if err := c.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := <-batchDone; err != nil {
		t.Fatalf("batch across failover: %v", err)
	}

	// Exactly once: however many attempts the retry loop made, the batch's
	// rows exist exactly once on the recovered primary.
	res, err := rt.Primary().Query(ctx, "select * from R;")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, row := range res.Rows {
		counts[fmt.Sprintf("%v", row[0])]++
	}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("during-%d", i)
		if counts[k] != 1 {
			t.Fatalf("row %s applied %d times, want exactly once (rows: %v)", k, counts[k], counts)
		}
	}

	// The replica rode through: it redials the proxy, resumes the stream
	// against the recovered primary, and lands on identical state.
	if _, err := rt.ExecBatch(ctx, batchScript("post", 4)); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)
}

// TestReplicaServesExplain: EXPLAIN SELECT only reads, so a replica answers
// it — directly and for a routed client, without falling back to the
// primary.
func TestReplicaServesExplain(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1})
	rt, err := c.Routed(c.PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if _, err := rt.Exec(ctx, "insert into R values ('a','x');"); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)

	const explain = "explain select R.v from R where R.k = 'a';"
	rep, err := client.Dial(c.ReplicaAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	res, err := rep.Query(ctx, explain)
	if err != nil {
		t.Fatalf("replica EXPLAIN: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("replica EXPLAIN returned no plan rows")
	}
	if _, err := rt.Query(ctx, explain); err != nil {
		t.Fatalf("routed EXPLAIN: %v", err)
	}
	if n := rt.Fallbacks(); n != 0 {
		t.Fatalf("routed EXPLAIN fell back to the primary %d times", n)
	}
}

// TestImageBootstrapThenRebuildAgrees: a snapshot holds the belief
// database, so a replica bootstrapped from the primary's image after
// deletes holds the same statements and worlds in fewer rows and states —
// the primary's representation after Rebuild, which is why Fingerprint
// leaves |R*| and N out. A Rebuild on the primary is journaled and shipped
// like any write, and afterwards the full Stats agree too.
func TestImageBootstrapThenRebuildAgrees(t *testing.T) {
	c := startCluster(t, Config{Replicas: 1})
	db := c.PrimaryDB()
	for _, u := range []string{"u1", "u2"} {
		if _, err := db.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ExecScript(`
		insert into R values ('k1','x');
		insert into BELIEF 'u1' BELIEF 'u2' R values ('k2','y');
		insert into BELIEF 'u2' not R values ('k1','x');
		delete from BELIEF 'u1' BELIEF 'u2' R where R.k = 'k2';
	`); err != nil {
		t.Fatal(err)
	}
	// The checkpoint rotates the epoch: the follower resyncs from an image.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecScript(`insert into BELIEF 'u1' R values ('k3','z');`); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)
	if n := c.Follower(0).Resyncs(); n < 1 {
		t.Fatalf("replica took %d snapshot resyncs, want a bootstrap from the image", n)
	}
	primary, replica := db.Stats(), c.ReplicaDB(0).Stats()
	if replica.States >= primary.States || replica.TotalRows >= primary.TotalRows {
		t.Fatalf("replica bootstrapped from the image holds as much as the primary:\nprimary %sreplica %s", primary, replica)
	}

	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, c)
	if p, r := db.Stats().String(), c.ReplicaDB(0).Stats().String(); p != r {
		t.Errorf("after a journaled Rebuild the Stats still differ:\nprimary %sreplica %s", p, r)
	}
}
