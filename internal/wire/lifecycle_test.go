package wire_test

// The connection-lifecycle suite, over real sockets: every case runs
// against both front ends of the protocol — a server.Server over a
// database and a router.Router over a one-shard cluster — because both run
// the same wire.Endpoint and must behave identically. The CI race job runs
// it under -race.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/router"
	"beliefdb/internal/server"
	"beliefdb/internal/wire"
)

// service is what both front ends are to the suite.
type service interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// running is one served front end.
type running struct {
	addr     string
	svc      service
	serveErr chan error
	once     sync.Once
	err      error
}

func serve(t *testing.T, svc service) *running {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &running{addr: ln.Addr().String(), svc: svc, serveErr: make(chan error, 1)}
	go func() { r.serveErr <- svc.Serve(ln) }()
	t.Cleanup(func() {
		if err := r.stop(); err != nil {
			t.Errorf("stopping %s: %v", r.addr, err)
		}
	})
	return r
}

// stop shuts the front end down and waits for Serve to return; only the
// first call does anything.
func (r *running) stop() error {
	r.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.err = r.svc.Shutdown(ctx)
		if err := <-r.serveErr; r.err == nil {
			r.err = err
		}
	})
	return r.err
}

// A startFunc starts the front end under test, configured with o, over db;
// whatever stands behind it (the router's shard) keeps its defaults.
type startFunc func(t *testing.T, db *beliefdb.DB, o wire.Options) *running

var frontEnds = []struct {
	name  string
	start startFunc
}{
	{"server", func(t *testing.T, db *beliefdb.DB, o wire.Options) *running {
		return serve(t, server.New(db, server.WithEndpoint(o)))
	}},
	{"router", func(t *testing.T, db *beliefdb.DB, o wire.Options) *running {
		shard := serve(t, server.New(db, server.WithShard(0, 1, 7)))
		rt, err := router.New([]router.Backend{{Primary: shard.addr}}, router.WithEndpoint(o))
		if err != nil {
			t.Fatal(err)
		}
		return serve(t, rt)
	}},
}

// openDB opens a database with one relation R(k, v) — durable (what the
// write paths of the panic case need) or in memory.
func openDB(t *testing.T, durable bool) *beliefdb.DB {
	t.Helper()
	schema := beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: "R", Columns: []beliefdb.Column{
			{Name: "k", Type: beliefdb.KindString},
			{Name: "v", Type: beliefdb.KindString},
		}},
	}}
	var db *beliefdb.DB
	var err error
	if durable {
		db, err = beliefdb.OpenAt(t.TempDir(), schema)
	} else {
		db, err = beliefdb.Open(schema)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// rawSession dials addr without the client package and completes the
// handshake by hand.
func rawSession(t *testing.T, addr string) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r, w := wire.NewReader(nc, 0), wire.NewWriter(nc, 0)
	if err := w.Write(wire.Hello()); err != nil {
		t.Fatal(err)
	}
	if m, err := r.Read(); err != nil || m.Kind != wire.KindServerHello {
		t.Fatalf("handshake: %v %v", m, err)
	}
	return nc, r, w
}

var lifecycleCases = []struct {
	name string
	run  func(t *testing.T, start startFunc)
}{
	// Shutdown stops accepts, unblocks idle connections, and drains
	// without failing in-flight work submitted before the shutdown.
	{"GracefulShutdown", func(t *testing.T, start startFunc) {
		fe := start(t, openDB(t, false), wire.Options{})
		cli, err := client.Dial(fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := fe.stop(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}

		// The shut-down front end answers nothing new.
		if err := cli.Ping(context.Background()); err == nil {
			t.Error("ping succeeded after shutdown")
		}
		if _, err := client.Dial(fe.addr); err == nil {
			t.Error("dial succeeded after shutdown")
		}
		// Serve after Shutdown refuses.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.svc.Serve(ln); err == nil {
			t.Error("Serve after Shutdown succeeded")
		}
	}},

	// A frame header declaring a payload beyond the limit is answered with
	// an Error frame and the connection dropped — without reading (or
	// allocating) the declared mountain of bytes.
	{"RejectsOversizedFrame", func(t *testing.T, start startFunc) {
		fe := start(t, openDB(t, false), wire.Options{MaxFrame: 1 << 16})
		nc, r, _ := rawSession(t, fe.addr)

		// A raw frame header claiming 1 GiB. No payload follows; the
		// refusal must come on the header alone.
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
		if _, err := nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		m, err := r.Read()
		if err != nil || m.Kind != wire.KindError || !strings.Contains(m.Text, "maximum size") {
			t.Fatalf("response = %+v, %v; want an Error frame about frame size", m, err)
		}
		// The connection is dead afterwards.
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := r.Read(); err == nil {
			t.Error("connection stayed open after an oversized frame")
		}
	}},

	// A connection that opens with something other than Hello, or with
	// another protocol version, is answered with an Error and closed.
	{"RejectsBadHandshake", func(t *testing.T, start startFunc) {
		fe := start(t, openDB(t, false), wire.Options{})
		for _, tc := range []struct {
			open wire.Msg
			want string
		}{
			{wire.Query("select 1"), "expected Hello"},
			{wire.Msg{Kind: wire.KindHello, Version: 99}, "version"},
		} {
			nc, err := net.Dial("tcp", fe.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if err := wire.NewWriter(nc, 0).Write(tc.open); err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(nc, 0)
			m, err := r.Read()
			if err != nil || m.Kind != wire.KindError || !strings.Contains(m.Text, tc.want) {
				t.Fatalf("opening with %s: response = %+v, %v; want an Error about %q", tc.open.Kind, m, err, tc.want)
			}
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := r.Read(); err == nil {
				t.Errorf("connection stayed open after opening with %s", tc.open.Kind)
			}
		}
	}},

	// Several requests written back-to-back before any response is read
	// are answered in order.
	{"PipelinedRequests", func(t *testing.T, start startFunc) {
		fe := start(t, openDB(t, false), wire.Options{})
		_, r, w := rawSession(t, fe.addr)

		// Pipeline: two inserts, a ping, and a query, all in flight at once.
		for _, m := range []wire.Msg{
			wire.Exec("insert into R values ('p1','x')"),
			wire.Exec("insert into R values ('p2','x')"),
			{Kind: wire.KindPing},
			wire.Query("select R.k from R order by R.k"),
		} {
			if err := w.Write(m); err != nil {
				t.Fatal(err)
			}
		}
		expect := func(want wire.Kind) wire.Msg {
			t.Helper()
			m, err := r.Read()
			if err != nil {
				t.Fatalf("reading %s: %v", want, err)
			}
			if m.Kind != want {
				t.Fatalf("got %s (%q), want %s", m.Kind, m.Text, want)
			}
			return m
		}
		expect(wire.KindResultEnd)
		expect(wire.KindResultEnd)
		expect(wire.KindPong)
		expect(wire.KindRowHeader)
		if chunk := expect(wire.KindRowChunk); len(chunk.Rows) != 2 {
			t.Fatalf("pipelined query returned %d rows, want 2", len(chunk.Rows))
		}
		expect(wire.KindResultEnd)
	}},

	// Rows large enough that RowChunkSize of them would blow the frame
	// limit still stream (the chunker bounds bytes, not just row count),
	// and a single row that cannot fit any frame turns into an in-stream
	// Error with the connection surviving — not a dead socket.
	{"StreamsWideRows", func(t *testing.T, start startFunc) {
		// ~64 KiB per row against a 256 KiB frame limit: a count-only
		// chunker would build one ~16 MiB frame and kill the connection.
		const maxFrame = 256 << 10
		db := openDB(t, false)
		wide := strings.Repeat("w", 64<<10)
		var sb strings.Builder
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&sb, "insert into R values ('k%02d','%s');", i, wide)
		}
		if _, err := db.ExecBatch(sb.String()); err != nil {
			t.Fatal(err)
		}
		fe := start(t, db, wire.Options{MaxFrame: maxFrame})
		cli, err := client.Dial(fe.addr, client.Options{MaxFrame: maxFrame})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		ctx := context.Background()

		res, err := cli.Query(ctx, "select R.k, R.v from R order by R.k")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 20 {
			t.Fatalf("streamed %d wide rows, want 20", len(res.Rows))
		}
		for i, row := range res.Rows {
			if row[1].AsString() != wide {
				t.Fatalf("row %d payload corrupted (len %d)", i, len(row[1].AsString()))
			}
		}

		// One row beyond any frame: the request fails with a diagnosable
		// error and the connection stays usable.
		huge := strings.Repeat("h", maxFrame)
		if _, err := db.Exec(fmt.Sprintf("insert into R values ('zz','%s')", huge)); err != nil {
			t.Fatal(err)
		}
		_, err = cli.Query(ctx, "select R.v from R where R.k = 'zz'")
		if err == nil || !strings.Contains(err.Error(), "frame limit") {
			t.Fatalf("oversized row: err = %v, want a frame-limit error", err)
		}
		if err := cli.Ping(ctx); err != nil {
			t.Fatalf("ping after oversized-row error: %v", err)
		}
	}},

	// A result much larger than one RowChunk arrives complete and ordered.
	{"StreamsLargeResults", func(t *testing.T, start startFunc) {
		db := openDB(t, false)
		n := 3*wire.RowChunkSize + 17
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "insert into R values ('k%06d','v');", i)
		}
		if _, err := db.ExecBatch(sb.String()); err != nil {
			t.Fatal(err)
		}
		fe := start(t, db, wire.Options{})
		cli, err := client.Dial(fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		res, err := cli.Query(context.Background(), "select R.k from R order by R.k")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n {
			t.Fatalf("streamed %d rows, want %d", len(res.Rows), n)
		}
		for i, row := range res.Rows {
			if want := fmt.Sprintf("k%06d", i); row[0].AsString() != want {
				t.Fatalf("row %d = %q, want %q", i, row[0].AsString(), want)
			}
		}
	}},

	// One connection's handler blowing up is answered with a coded internal
	// error, logged, and costs that connection only.
	{"PanicOnOneConnectionDoesNotDisturbOthers", func(t *testing.T, start startFunc) {
		wire.SetPanicHook(func(req wire.Msg) {
			if req.Kind == wire.KindQuery && strings.Contains(req.Text, "poison") {
				panic("injected handler panic")
			}
		})
		defer wire.SetPanicHook(nil)

		var mu sync.Mutex
		var logged []string
		fe := start(t, openDB(t, true), wire.Options{Logf: func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		}})
		ctx := context.Background()

		// The bystander holds an open connection across the other's panic.
		bystander, err := client.Dial(fe.addr, client.Options{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer bystander.Close()
		if _, err := bystander.ExecBatch(ctx, "insert into R values ('a','1');"); err != nil {
			t.Fatal(err)
		}

		// Default options: the panic error itself is server-reported (never
		// retried), and the follow-up query transparently replaces the
		// connection the front end dropped.
		victim, err := client.Dial(fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer victim.Close()
		_, err = victim.Query(ctx, "select R.k from R where R.v = 'poison'")
		if err == nil {
			t.Fatal("poisoned query succeeded")
		}
		// The panic comes back as a coded internal error before the
		// connection dies, and leaves exactly one log line.
		if !strings.Contains(err.Error(), "internal error") {
			t.Errorf("victim error %q does not describe the internal failure", err)
		}
		mu.Lock()
		if len(logged) != 1 || !strings.Contains(logged[0], "recovered panic serving Query") {
			t.Errorf("log after the panic = %q, want one recovered-panic line", logged)
		}
		mu.Unlock()

		// Every other connection keeps serving, reads and writes alike.
		if _, err := bystander.Query(ctx, "select R.k from R"); err != nil {
			t.Fatalf("bystander read after panic: %v", err)
		}
		if _, err := bystander.ExecBatch(ctx, "insert into R values ('b','2');"); err != nil {
			t.Fatalf("bystander write after panic: %v", err)
		}
		// And the victim's client recovers on a fresh connection.
		if _, err := victim.Query(ctx, "select R.k from R"); err != nil {
			t.Fatalf("victim reconnect after panic: %v", err)
		}
	}},

	// With one connection slot, a second dial must wait for the first to
	// finish rather than being refused.
	{"MaxConnsBackpressure", func(t *testing.T, start startFunc) {
		fe := start(t, openDB(t, false), wire.Options{MaxConns: 1})

		// First client occupies the only slot.
		c1, err := client.Dial(fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := c1.Ping(ctx); err != nil {
			t.Fatal(err)
		}

		// The second dial connects at TCP level (listen backlog) but its
		// handshake cannot complete until the slot frees.
		done := make(chan error, 1)
		go func() {
			c2, err := client.Dial(fe.addr, client.Options{DialTimeout: 5 * time.Second})
			if err == nil {
				defer c2.Close()
				err = c2.Ping(ctx)
			}
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("second client completed while the slot was held (err=%v)", err)
		case <-time.After(200 * time.Millisecond):
			// Still queued: backpressure is working.
		}
		c1.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("second client after slot freed: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("second client never got the freed slot")
		}
	}},
}

func TestLifecycle(t *testing.T) {
	for _, fe := range frontEnds {
		for _, tc := range lifecycleCases {
			t.Run(fe.name+"/"+tc.name, func(t *testing.T) { tc.run(t, fe.start) })
		}
	}
}
