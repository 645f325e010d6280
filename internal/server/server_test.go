package server

// Integration tests over real sockets: a live Server on a loopback
// listener, driven by the public client package. The concurrency tests are
// the ones the CI race job exercises with -race. The connection lifecycle
// (handshake, framing bounds, pipelining, streaming, panic isolation, the
// accept gate, drain) is tested once for every front end in
// internal/wire/lifecycle_test.go.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
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

// startServer runs a Server over db on a loopback listener and returns its
// address. Cleanup shuts the server down (before the db closes).
func startServer(t *testing.T, db *beliefdb.DB, opts ...Option) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, opts...)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// startDurable opens a durable database with users u1..m, serves it, and
// returns the client address plus the db for server-side assertions.
func startDurable(t *testing.T, m int) (string, *beliefdb.DB) {
	t.Helper()
	db, err := beliefdb.OpenAt(t.TempDir(), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 1; i <= m; i++ {
		if _, err := db.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return startServer(t, db), db
}

func TestServerBasicRoundTrips(t *testing.T) {
	addr, _ := startDurable(t, 2)
	cli, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	if err := cli.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	uid, err := cli.AddUser(ctx, "remote-user")
	if err != nil {
		t.Fatal(err)
	}
	if uid != 3 {
		t.Errorf("uid = %d, want 3", uid)
	}
	if _, err := cli.AddUser(ctx, "remote-user"); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate AddUser: %v", err)
	}

	if _, err := cli.Exec(ctx, "insert into R values ('a','1')"); err != nil {
		t.Fatal(err)
	}
	br, err := cli.ExecBatch(ctx, "insert into BELIEF 'u1' R values ('a','2'); insert into R values ('b','3');")
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied != 2 || br.Changed != 2 {
		t.Errorf("batch result = %+v", br)
	}

	res, err := cli.Query(ctx, "select R.k, R.v from R order by R.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || len(res.Rows) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Rows[0][0].AsString() != "a" || res.Rows[1][0].AsString() != "b" {
		t.Errorf("rows = %v", res.Rows)
	}

	// Request-level errors keep the connection usable.
	if _, err := cli.Query(ctx, "select X.k from X"); err == nil {
		t.Error("query over unknown relation succeeded")
	}
	if err := cli.Ping(ctx); err != nil {
		t.Fatalf("ping after error: %v", err)
	}

	if err := cli.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerConcurrentClients is the acceptance-criteria integration test:
// >= 8 concurrent clients interleaving ExecBatch mutations and Queries
// against one live server, race-clean (the CI race job runs it under
// -race), with every batch accounted for at the end.
func TestServerConcurrentClients(t *testing.T) {
	const clients = 10
	const rounds = 8
	addr, db := startDurable(t, clients)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := client.Dial(addr, client.Options{PoolSize: 2})
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			ctx := context.Background()
			user := fmt.Sprintf("u%d", c+1)
			for i := 0; i < rounds; i++ {
				script := fmt.Sprintf(
					"insert into R values ('c%d-%d','x'); insert into BELIEF '%s' not R values ('c%d-%d','x');",
					c, i, user, c, i)
				br, err := cli.ExecBatch(ctx, script)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, i, err)
					return
				}
				if br.Applied != 2 {
					errs <- fmt.Errorf("client %d round %d: %+v", c, i, br)
					return
				}
				res, err := cli.Query(ctx, fmt.Sprintf("select R.v from R where R.k = 'c%d-%d'", c, i))
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("client %d query %d: %d rows", c, i, len(res.Rows))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got, want := db.Stats().Annotations, clients*rounds*2; got != want {
		t.Fatalf("server db holds %d statements, want %d", got, want)
	}
}

// TestServerCoalescesAcrossClients: concurrent single-statement batches
// from many connections commit in fewer fsyncs than batches — the
// pipelined group commit the server exists for. Whether two submissions
// overlap is a scheduling accident (typical runs land near 0.15
// fsyncs/op), so the test takes the best of a few attempts before calling
// the pipeline broken.
func TestServerCoalescesAcrossClients(t *testing.T) {
	const clients = 16
	const perClient = 6
	const attempts = 3
	addr, db := startDurable(t, 1)

	total := clients * perClient
	best := uint64(1<<63 - 1)
	for attempt := 1; attempt <= attempts; attempt++ {
		syncs0 := db.WALSyncs()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli, err := client.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer cli.Close()
				<-start
				for i := 0; i < perClient; i++ {
					script := fmt.Sprintf("insert into R values ('a%d-c%d-%d','x');", attempt, c, i)
					if _, err := cli.ExecBatch(context.Background(), script); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if got, want := db.Stats().Annotations, attempt*total; got != want {
			t.Fatalf("attempt %d: db holds %d statements, want %d", attempt, got, want)
		}
		syncs := db.WALSyncs() - syncs0
		t.Logf("attempt %d: %d remote single-statement batches in %d fsyncs (%.2f fsyncs/op)",
			attempt, total, syncs, float64(syncs)/float64(total))
		if syncs < best {
			best = syncs
		}
		if best < uint64(total) {
			return
		}
	}
	t.Errorf("no attempt coalesced: best was %d fsyncs for %d remote batches", best, total)
}

// TestShardedServerExecServesExplain: a sharded server's Exec path runs
// read-only scripts, and EXPLAIN SELECT is one; writes stay refused there.
func TestShardedServerExecServesExplain(t *testing.T) {
	db, err := beliefdb.Open(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cli, err := client.Dial(startServer(t, db, WithShard(0, 1, 7)))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	res, err := cli.Exec(ctx, "explain select R.v from R where R.k = 'a'")
	if err != nil {
		t.Fatalf("EXPLAIN through Exec: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("EXPLAIN returned no plan rows")
	}
	if _, err := cli.Exec(ctx, "insert into R values ('a','1')"); !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("Exec write on a sharded server: got %v, want ErrWrongShard", err)
	}
}
