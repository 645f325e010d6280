package client

// Routed-client failure-path tests: replica outages and staleness must
// fall back to the primary invisibly, and the read-your-writes watermark
// must never move backwards. The primary is a real in-process server; the
// replica, where the scenario needs exact behavior (always-stale,
// parse errors), is a scripted fakeServer.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/internal/server"
	"beliefdb/internal/wire"
)

// fastOpts keeps dead-server retries from slowing the tests down.
var fastOpts = Options{
	DialTimeout:  time.Second,
	MaxRetries:   1,
	RetryBackoff: time.Millisecond,
}

// startRealServer serves db on a loopback listener until the test ends.
func startRealServer(t *testing.T, db *beliefdb.DB) (addr string, stop func()) {
	t.Helper()
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	var once bool
	stop = func() {
		if once {
			return
		}
		once = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

func routedDB(t *testing.T) *beliefdb.DB {
	t.Helper()
	sch, err := beliefdb.ParseSchemaSpec("Sightings(sid:text,species:text)")
	if err != nil {
		t.Fatal(err)
	}
	// Durable: write acknowledgements carry WAL positions only when there
	// is a WAL, and the watermark tests need real positions.
	db, err := beliefdb.OpenAt(t.TempDir(), sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.ExecScript("insert into Sightings values ('s1','owl'),('s2','crow')"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRoutedAllReplicasDownFallsBack: every configured replica dies after
// dial; reads keep serving through the primary, one fallback per read.
func TestRoutedAllReplicasDownFallsBack(t *testing.T) {
	primaryAddr, _ := startRealServer(t, routedDB(t))
	rep1Addr, stop1 := startRealServer(t, routedDB(t))
	rep2Addr, stop2 := startRealServer(t, routedDB(t))

	rt, err := DialRouted(primaryAddr, []string{rep1Addr, rep2Addr}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx := context.Background()
	if _, err := rt.Query(ctx, "select S.sid from Sightings S"); err != nil {
		t.Fatalf("query with replicas up: %v", err)
	}
	if n := rt.Fallbacks(); n != 0 {
		t.Fatalf("fallbacks with replicas up = %d", n)
	}

	stop1()
	stop2()

	// Round-robin lands on each dead replica in turn; both reads must
	// still answer, via the primary.
	for i := 0; i < 2; i++ {
		res, err := rt.Query(ctx, "select S.sid from Sightings S")
		if err != nil {
			t.Fatalf("query %d with all replicas down: %v", i, err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("query %d rows = %v", i, res.Rows)
		}
	}
	if n := rt.Fallbacks(); n != 2 {
		t.Errorf("fallbacks after two all-down reads = %d, want 2", n)
	}
	// QueryStale falls back on replica failure too (staleness is not the
	// only reason to re-serve on the primary).
	if _, err := rt.QueryStale(ctx, "select S.sid from Sightings S"); err != nil {
		t.Errorf("QueryStale with all replicas down: %v", err)
	}
}

// TestRoutedStaleReplicaFallsBack scripts a replica that refuses every
// watermarked read as stale and answers bad SQL with a parse error: the
// stale refusal must fall back to the primary invisibly, while the parse
// error must surface directly — it is the caller's, answered identically
// everywhere, and a fallback would just repeat it.
func TestRoutedStaleReplicaFallsBack(t *testing.T) {
	primaryAddr, _ := startRealServer(t, routedDB(t))
	fake := newFakeServer(t, func(c net.Conn, r *wire.Reader, w *wire.Writer) {
		for {
			m, err := r.Read()
			if err != nil {
				return
			}
			switch m.Kind {
			case wire.KindPing:
				if err := w.Write(wire.Msg{Kind: wire.KindPong}); err != nil {
					return
				}
			case wire.KindQuery:
				code, text := wire.CodeStaleRead, "replica lagging"
				if m.Text == "definitely not sql" {
					code, text = wire.CodeParse, "parse error"
				}
				if err := w.Write(wire.ErrorMsg(code, text)); err != nil {
					return
				}
			default:
				return
			}
		}
	})

	rt, err := DialRouted(primaryAddr, []string{fake.addr()}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()

	// A write gives the handle a real watermark for the replica to be
	// stale against.
	if _, err := rt.ExecBatch(ctx, "insert into Sightings values ('s3','hawk');"); err != nil {
		t.Fatal(err)
	}
	if rt.Watermark() == (Position{}) {
		t.Fatal("watermark did not advance after ExecBatch")
	}

	res, err := rt.Query(ctx, "select S.sid from Sightings S")
	if err != nil {
		t.Fatalf("query against always-stale replica: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n := rt.Fallbacks(); n != 1 {
		t.Errorf("fallbacks = %d, want 1", n)
	}

	// The parse error comes straight back from the replica, no fallback.
	if _, err := rt.Query(ctx, "definitely not sql"); !errors.Is(err, ErrParse) {
		t.Errorf("bad SQL err = %v, want ErrParse", err)
	}
	if n := rt.Fallbacks(); n != 1 {
		t.Errorf("fallbacks after parse error = %d, want still 1", n)
	}
}

// TestRoutedWatermarkNeverRegresses: the watermark is monotone under any
// sequence of acknowledged positions, and real writes only move it
// forward.
func TestRoutedWatermarkNeverRegresses(t *testing.T) {
	rt := &Routed{}
	steps := []struct {
		p    Position
		want Position
	}{
		{Position{}, Position{}},                     // zero ack imposes nothing
		{Position{Epoch: 1, Pos: 5}, Position{1, 5}}, // first real ack
		{Position{Epoch: 1, Pos: 3}, Position{1, 5}}, // older pos ignored
		{Position{Epoch: 2, Pos: 0}, Position{2, 0}}, // epoch advance wins
		{Position{Epoch: 1, Pos: 9}, Position{2, 0}}, // older epoch ignored
		{Position{}, Position{2, 0}},                 // zero never resets
		{Position{Epoch: 2, Pos: 7}, Position{2, 7}}, // forward again
	}
	for i, s := range steps {
		rt.advanceWatermark(s.p)
		if got := rt.Watermark(); got != s.want {
			t.Fatalf("step %d: watermark = %+v, want %+v", i, got, s.want)
		}
	}

	// Against a live server: each acknowledged write covers the last.
	addr, _ := startRealServer(t, routedDB(t))
	live, err := DialRouted(addr, nil, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	var prev Position
	for i, script := range []string{
		"insert into Sightings values ('w1','ibis');",
		"insert into Sightings values ('w2','ibis');",
	} {
		if _, err := live.ExecBatch(ctx, script); err != nil {
			t.Fatal(err)
		}
		w := live.Watermark()
		if !w.Covers(prev) || w == prev {
			t.Fatalf("write %d: watermark %+v does not strictly advance over %+v", i, w, prev)
		}
		prev = w
	}
}
