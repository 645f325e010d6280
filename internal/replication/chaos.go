// Chaos harness: a proxied Cluster's primary under a mixed read/write
// workload while a seeded fault schedule tears at the network between them
// — ack blackholes, connection drops, and full KillPrimary/RestartPrimary
// cycles. Its product is the invariant report. Three invariants must
// survive any schedule:
//
//  1. Exactly once: every acknowledged batch is present in the final
//     state exactly once, even when its ack was eaten and the client's
//     retry re-sent the same idempotency token.
//  2. No torn state: no key appears more than once, acked or not — a
//     retried batch whose first attempt did commit must be deduplicated,
//     never reapplied.
//  3. Recovery equivalence: reopening the database from its WAL and
//     snapshot reproduces the exact final row set.
package replication

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/server"
	"beliefdb/internal/wire"
)

// ChaosConfig parameterizes one chaos run. The schedule is fully
// determined by Seed — two runs with the same config inject the same
// fault sequence at the same points in wall-clock time (workload
// interleaving still varies, which is the point: the invariants must
// hold for every interleaving).
type ChaosConfig struct {
	Seed     int64 // fault-schedule seed
	Clients  int   // concurrent writer connections
	Readers  int   // concurrent reader connections
	Ops      int   // total single-insert batches across all writers
	Restarts int   // server kill+recover cycles during the run
}

// chaosFaultPeriod is the mean delay between injected faults.
const chaosFaultPeriod = 5 * time.Millisecond

// ChaosResult reports what the schedule did and which invariants held.
type ChaosResult struct {
	Ops        int           // batches attempted
	Acked      int           // batches acknowledged to a writer
	Unacked    int           // batches whose final retry still failed
	Faults     int           // injected network faults
	Restarts   int           // completed kill+recover cycles
	Reads      int           // successful reads during the storm
	Rows       int           // rows in the final state
	Elapsed    time.Duration // wall time of the storm phase
	Violations []string      // empty means every invariant held
}

// RunChaos executes one seeded chaos schedule against a proxied cluster
// under root and verifies the invariants. A non-empty Violations list is
// the harness finding a real robustness bug, not an error running the
// harness.
func RunChaos(root string, cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Clients < 1 || cfg.Ops < 1 {
		return nil, fmt.Errorf("replication: chaos needs at least one client and one op")
	}
	c, err := Start(root, Config{
		Schema: beliefdb.Schema{Relations: []beliefdb.Relation{{
			Name: "C",
			Columns: []beliefdb.Column{
				{Name: "k", Type: beliefdb.KindString},
				{Name: "v", Type: beliefdb.KindString},
			},
		}}},
		Proxy:      true,
		ServerOpts: []server.Option{server.WithEndpoint(wire.Options{MaxConns: 64, RequestTimeout: 5 * time.Second})},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	proxy := c.Proxy()

	// Clients retry hard: the schedule includes multi-millisecond server
	// outages the backoff ladder must ride out.
	opts := client.Options{MaxRetries: 10, RetryBackoff: 5 * time.Millisecond, RetryMaxBackoff: 250 * time.Millisecond}
	writers := make([]*client.Client, cfg.Clients)
	for i := range writers {
		if writers[i], err = client.Dial(proxy.Addr(), opts); err != nil {
			return nil, err
		}
		defer writers[i].Close()
	}

	res := &ChaosResult{Ops: cfg.Ops}
	var (
		acked   sync.Map // key -> struct{}
		ackedN  atomic.Int64
		unacked atomic.Int64
		reads   atomic.Int64
		done    = make(chan struct{})
	)

	// Fault injector: seeded schedule of ack blackholes and connection
	// drops on a jittered cadence.
	var faultN atomic.Int64
	var injectWG sync.WaitGroup
	injectWG.Add(1)
	go func() {
		defer injectWG.Done()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for {
			d := chaosFaultPeriod/2 + time.Duration(rng.Int63n(int64(chaosFaultPeriod)+1))
			select {
			case <-done:
				return
			case <-time.After(d):
			}
			switch rng.Intn(3) {
			case 0:
				// Ack blackhole: requests reach the server, responses
				// vanish, then the relays die — the exactly-once trap.
				proxy.Blackhole(true)
				time.Sleep(time.Millisecond)
				proxy.DropActive()
				proxy.Blackhole(false)
			default:
				proxy.DropActive()
			}
			faultN.Add(1)
		}
	}()

	// Restart controller: each scheduled kill fires once a share of the
	// workload has been acknowledged, so recovery always has state to
	// replay and work arrives while the server is down.
	restartErr := make(chan error, 1)
	var restarts atomic.Int64
	var restartWG sync.WaitGroup
	restartWG.Add(1)
	go func() {
		defer restartWG.Done()
		for r := 1; r <= cfg.Restarts; r++ {
			threshold := int64(cfg.Ops * r / (cfg.Restarts + 1))
			for ackedN.Load() < threshold {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
			}
			// Clients see a crash: acks blackholed, connections dead, then
			// a reachable primary on a fresh port with replayed state.
			err := c.KillPrimary()
			if err == nil {
				err = c.RestartPrimary()
			}
			if err != nil {
				restartErr <- err
				return
			}
			restarts.Add(1)
		}
	}()

	// Readers hammer the same proxy throughout — including the blackhole
	// windows and restarts — and must keep getting answers.
	var readerWG sync.WaitGroup
	for i := 0; i < cfg.Readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			cli, err := client.Dial(proxy.Addr(), opts)
			if err != nil {
				return
			}
			defer cli.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := cli.Query(context.Background(), "select C.k from C"); err == nil {
					reads.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	start := time.Now()
	var writerWG sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		writerWG.Add(1)
		go func(c int) {
			defer writerWG.Done()
			for i := c; i < cfg.Ops; i += cfg.Clients {
				key := fmt.Sprintf("k%06d", i)
				script := fmt.Sprintf("insert into C values ('%s','v');", key)
				if _, err := writers[c].ExecBatch(context.Background(), script); err == nil {
					acked.Store(key, struct{}{})
					ackedN.Add(1)
				} else {
					unacked.Add(1)
				}
			}
		}(c)
	}
	writerWG.Wait()
	res.Elapsed = time.Since(start)
	close(done)
	injectWG.Wait()
	restartWG.Wait()
	readerWG.Wait()
	select {
	case err := <-restartErr:
		return nil, fmt.Errorf("replication: chaos restart: %w", err)
	default:
	}

	res.Acked = int(ackedN.Load())
	res.Unacked = int(unacked.Load())
	res.Faults = int(faultN.Load())
	res.Restarts = int(restarts.Load())
	res.Reads = int(reads.Load())

	// Verification phase: quiesced, in-process reads against the final
	// store, then a recovery pass.
	counts, err := chaosScan(c.PrimaryDB())
	if err != nil {
		return nil, err
	}
	res.Rows = len(counts)
	acked.Range(func(k, _ interface{}) bool {
		if counts[k.(string)] != 1 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("acked key %s present %d times, want exactly 1", k, counts[k.(string)]))
		}
		return true
	})
	for k, n := range counts {
		if n > 1 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("key %s duplicated %d times (torn retry)", k, n))
		}
	}

	// Recovery equivalence: stop the primary, reopen it from its journal,
	// and demand the identical row set.
	if err := c.KillPrimary(); err != nil {
		return nil, err
	}
	if err := c.RestartPrimary(); err != nil {
		return nil, fmt.Errorf("replication: chaos recovery reopen: %w", err)
	}
	counts2, err := chaosScan(c.PrimaryDB())
	if err != nil {
		return nil, err
	}
	if len(counts2) != len(counts) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("recovery produced %d keys, want %d", len(counts2), len(counts)))
	}
	for k, n := range counts {
		if counts2[k] != n {
			res.Violations = append(res.Violations,
				fmt.Sprintf("recovery changed key %s: %d -> %d", k, n, counts2[k]))
		}
	}
	return res, nil
}

// chaosScan counts rows per key through the public query path.
func chaosScan(db *beliefdb.DB) (map[string]int, error) {
	res, err := db.Query("select C.k from C")
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(res.Rows))
	for _, row := range res.Rows {
		counts[row[0].AsString()]++
	}
	return counts, nil
}
