package replication

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/router"
	"beliefdb/internal/val"
	"beliefdb/internal/wire"
)

const shardSchema = "Sightings(sid:text,species:text,grams:int)"

const shardSeedData = `
insert into BELIEF 'Alice' Sightings values ('s1','owl',120),('s2','owl',130),('s3','crow',200);
insert into BELIEF 'Bob' Sightings values ('s1','owl',121),('s4','hawk',500);
insert into BELIEF 'Bob' not Sightings values ('s3','crow',200);
insert into BELIEF 'Carol' BELIEF 'Bob' Sightings values ('s5','dove',90);
insert into Sightings values ('s6','owl',110),('s7','crow',210),('s8','hawk',480);
`

var shardUsers = []string{"Alice", "Bob", "Carol"}

func shardedSchema(t *testing.T) beliefdb.Schema {
	t.Helper()
	sch, err := beliefdb.ParseSchemaSpec(shardSchema)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// singleNodeReference builds an embedded database holding exactly the
// sharded cluster's data, registered and inserted in the same order.
func singleNodeReference(t *testing.T) *beliefdb.DB {
	t.Helper()
	db, err := beliefdb.Open(shardedSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, u := range shardUsers {
		if _, err := db.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ExecScript(shardSeedData); err != nil {
		t.Fatal(err)
	}
	return db
}

// seedSharded loads the same users and data through the router.
func seedSharded(t *testing.T, cli *client.Client) {
	t.Helper()
	ctx := context.Background()
	for _, u := range shardUsers {
		if _, err := cli.AddUser(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.ExecBatch(ctx, shardSeedData); err != nil {
		t.Fatal(err)
	}
}

// canon renders a result canonically: the column header, then every row as
// SQL literals — sorted unless the query imposed a total order.
func canon(res *beliefdb.Result, ordered bool) string {
	lines := make([]string, 0, len(res.Rows)+1)
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.SQL()
		}
		lines = append(lines, strings.Join(parts, ", "))
	}
	if !ordered {
		for i := 1; i < len(lines); i++ {
			for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
				lines[j], lines[j-1] = lines[j-1], lines[j]
			}
		}
	}
	return strings.Join(res.Columns, ", ") + "\n" + strings.Join(lines, "\n")
}

// equivalenceQueries is the scatter-gather acceptance suite: every shape
// the merge must reproduce byte-identically (after canonical ordering)
// against a single node. ordered marks queries whose ORDER BY is a total
// order, compared without re-sorting.
var equivalenceQueries = []struct {
	q       string
	ordered bool
}{
	{"select S.species from Sightings S order by S.species", true},
	{"select S.sid, S.species, S.grams from Sightings S order by S.sid, S.species, S.grams", true},
	// An integral float literal stays a float in the text each shard
	// parses, so the division is not an integer one.
	{"select S.sid, S.grams, S.grams / 2.0 as half, 1.0 / 2 as h from Sightings S order by S.sid, S.grams", true},
	{"select S.sid, S.species from BELIEF 'Bob' Sightings S order by S.sid", false},
	{"select S.sid from BELIEF 'Carol' BELIEF 'Bob' Sightings S", false},
	{"select S.species, count(S.sid) as n, min(S.grams), max(S.grams) from Sightings S group by S.species order by S.species", true},
	{"select count(S.sid), avg(S.grams), sum(S.grams) from Sightings S", false},
	{"select S.species, count(S.sid) + 1 as n1 from Sightings S group by S.species order by n1 desc, S.species", true},
	{"select S.sid from Sightings S order by S.sid limit 3", true},
	{"select S.species from Sightings S order by S.species limit 2", true},
	{"select U.name from Users U order by U.name", true},
	{"select U.name, S.sid from BELIEF U.uid Sightings S, Users U order by U.name, S.sid", true},
}

// TestShardedEquivalence is the sharding acceptance test: a 2-shard
// cluster loaded through the router answers every query shape exactly
// like a single node holding the same data.
func TestShardedEquivalence(t *testing.T) {
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema: shardedSchema(t),
		Shards: 2,
		Seed:   0x5eed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if si := cli.Shard(); si.ID != -1 || si.Count != 2 {
		t.Fatalf("router announced shard info %+v", si)
	}
	seedSharded(t, cli)
	ref := singleNodeReference(t)

	ctx := context.Background()
	compare := func(t *testing.T) {
		t.Helper()
		for _, tc := range equivalenceQueries {
			got, err := cli.Query(ctx, tc.q)
			if err != nil {
				t.Errorf("router: %s: %v", tc.q, err)
				continue
			}
			want, err := ref.ExecScript(tc.q)
			if err != nil {
				t.Errorf("reference: %s: %v", tc.q, err)
				continue
			}
			if g, w := canon(got, tc.ordered), canon(want, tc.ordered); g != w {
				t.Errorf("%s:\nrouter:\n%s\nsingle node:\n%s", tc.q, g, w)
			}
		}
	}
	compare(t)

	// EXPLAIN routes to one shard and answers (plans are per-node, so the
	// text is not compared against the reference).
	if res, err := cli.Query(ctx, "explain select S.sid from Sightings S where S.sid = 's1'"); err != nil || len(res.Rows) == 0 {
		t.Errorf("EXPLAIN through router: res=%v err=%v", res, err)
	}

	// Cross-shard joins are refused, not answered wrongly.
	if _, err := cli.Query(ctx, "select S.sid from Sightings S, BELIEF 'Bob' Sightings T where S.sid = T.sid"); err == nil {
		t.Error("cross-shard join was not refused")
	}
	// So is a lone negated reference: absence of a statement is only known
	// on its owning shard, so a union merge would admit false positives.
	if _, err := cli.Query(ctx, "select U.name from Users U, BELIEF 'Bob' not Sightings S where S.sid = 's3' and S.species = 'crow' and S.grams = 200"); err == nil {
		t.Error("lone negated partitioned reference was not refused")
	}

	// A DELETE broadcast (here through the Exec path, which routes it as an
	// untokened batch) removes the statement wherever it lives; the cluster
	// keeps matching the reference afterwards.
	del := "delete from BELIEF 'Alice' Sightings where Sightings.sid = 's2'"
	if _, err := cli.Exec(ctx, del); err != nil {
		t.Fatalf("router delete: %v", err)
	}
	if _, err := ref.ExecScript(del); err != nil {
		t.Fatalf("reference delete: %v", err)
	}
	compare(t)

	// The replicated Users table assigned the same uids everywhere, and a
	// duplicate registration is refused like a single node refuses it.
	if _, err := cli.AddUser(ctx, "Alice"); err == nil {
		t.Error("duplicate AddUser through router succeeded")
	}

	// The whole cluster state — not just query answers — matches the
	// reference: union of shard dumps == single-node dump.
	got, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := DumpFingerprint(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cluster fingerprint diverged from single node:\ncluster:\n%s\nsingle node:\n%s", got, want)
	}
}

// TestShardedReplicasConverge drives writes through the router with a
// replica behind every shard: reads are immediately consistent (the
// router carries each shard's read-your-writes watermark), the replicas
// converge to their primaries, and checkpoints broadcast.
func TestShardedReplicasConverge(t *testing.T) {
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema:           shardedSchema(t),
		Shards:           2,
		ReplicasPerShard: 1,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	seedSharded(t, cli)

	// Read-your-writes through the router, replicas converged or not.
	ctx := context.Background()
	res, err := cli.Query(ctx, "select S.sid from Sightings S")
	if err != nil {
		t.Fatal(err)
	}
	// A plain (unannotated) query sees the three directly inserted tuples.
	if len(res.Rows) != 3 {
		t.Fatalf("read-your-writes saw %d sids, want 3", len(res.Rows))
	}

	if err := sc.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sc.EqualState(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Checkpoint(ctx); err != nil {
		t.Fatalf("broadcast checkpoint: %v", err)
	}
}

// TestShardedMisrouteRefused dials a shard server directly — bypassing the
// router — and verifies the shard refuses writes it does not own with the
// wrong-shard code, refuses Exec-path writes entirely, and still serves
// reads.
func TestShardedMisrouteRefused(t *testing.T) {
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema:           shardedSchema(t),
		Shards:           2,
		ReplicasPerShard: 1,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// A router wired with shard 1's replica under shard 0 refuses the
	// cluster: every replica-routed read would serve another shard's rows.
	miswired, err := router.New([]router.Backend{
		{Primary: sc.Shard(0).PrimaryAddr(), Replicas: sc.Shard(1).ReplicaAddrs()},
		{Primary: sc.Shard(1).PrimaryAddr()},
	})
	if err == nil {
		miswired.Shutdown(context.Background())
	}
	if err == nil || !strings.Contains(err.Error(), "is shard 1, configured as shard 0") {
		t.Errorf("router over a misplaced replica: err = %v, want a shard-identity refusal", err)
	}

	// Find keys owned by each shard.
	m := sc.Router().Map()
	keyFor := func(shard int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("k%d", i)
			if m.Owner("Sightings", val.Str(k)) == shard {
				return k
			}
		}
	}

	ctx := context.Background()
	direct, err := client.Dial(sc.Shard(0).PrimaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if si := direct.Shard(); si.ID != 0 || si.Count != 2 || si.Seed != 11 {
		t.Fatalf("shard 0 announced %+v", si)
	}

	// A batch whose key belongs to shard 1 is refused by shard 0.
	script := fmt.Sprintf("insert into Sightings values ('%s','owl',1);", keyFor(1))
	if _, err := direct.ExecBatch(ctx, script); !errors.Is(err, client.ErrWrongShard) {
		t.Errorf("misrouted batch: err = %v, want ErrWrongShard", err)
	}
	// The same batch with shard 0's key is accepted.
	script = fmt.Sprintf("insert into Sightings values ('%s','owl',1);", keyFor(0))
	if _, err := direct.ExecBatch(ctx, script); err != nil {
		t.Errorf("owned batch: %v", err)
	}
	// Exec-path writes bypass the owner check and are refused outright.
	if _, err := direct.Exec(ctx, script); !errors.Is(err, client.ErrWrongShard) {
		t.Errorf("Exec write on shard: err = %v, want ErrWrongShard", err)
	}
	// Reads are served directly.
	if _, err := direct.Query(ctx, "select S.sid from Sightings S"); err != nil {
		t.Errorf("direct read: %v", err)
	}
}

// TestShardedPartialFailure kills one shard's primary mid-deployment:
// reads keep serving through that shard's replica, a batch spanning both
// shards fails, and retrying it under the same token after the primary
// returns applies exactly once everywhere.
func TestShardedPartialFailure(t *testing.T) {
	copts := client.Options{
		DialTimeout:  500 * time.Millisecond,
		MaxRetries:   1,
		RetryBackoff: 10 * time.Millisecond,
	}
	sc, err := StartSharded(t.TempDir(), ShardedConfig{
		Schema:           shardedSchema(t),
		Shards:           2,
		ReplicasPerShard: 1,
		Seed:             23,
		Proxy:            true,
		RouterOpts: []router.Option{
			router.WithClientOptions(copts),
			router.WithEndpoint(wire.Options{RequestTimeout: 5 * time.Second}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	cli, err := sc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	seedSharded(t, cli)
	if err := sc.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := sc.Shard(1).KillPrimary(); err != nil {
		t.Fatal(err)
	}

	// Reads still answer: shard 1's replica serves its converged state.
	ctx := context.Background()
	res, err := cli.Query(ctx, "select S.sid from Sightings S")
	if err != nil {
		t.Fatalf("read with shard 1 primary down: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("read with shard 1 down saw %d sids, want 3", len(res.Rows))
	}

	// A batch with rows for both shards fails while shard 1 is down...
	batch := "insert into Sightings values ('t1','ibis',300),('t2','ibis',301),('t3','ibis',302),('t4','ibis',303);"
	if _, err := cli.ExecBatchToken(ctx, batch, "partial-failure-tok"); err == nil {
		t.Fatal("batch spanning a dead shard succeeded")
	}

	// ...and retrying it under the same token after recovery applies each
	// row exactly once, including on the shard that committed its slice
	// during the failed attempt.
	if err := sc.Shard(1).RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ExecBatchToken(ctx, batch, "partial-failure-tok"); err != nil {
		t.Fatalf("retried batch: %v", err)
	}
	res, err = cli.Query(ctx, "select S.sid, count(S.sid) as n from Sightings S group by S.sid order by S.sid")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, row := range res.Rows {
		counts[row[0].AsString()] = row[1].AsInt()
	}
	for _, k := range []string{"t1", "t2", "t3", "t4"} {
		if counts[k] != 1 {
			t.Errorf("key %s applied %d times, want exactly once", k, counts[k])
		}
	}
}
