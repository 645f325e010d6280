package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"beliefdb/internal/val"
)

// This file is the protocol's session layer, the one implementation every
// peer runs. An Endpoint is the listening side — listener, accept gate,
// handshake, request loop, result stream, panic isolation and drain — and
// a front end (internal/server over one database, internal/router over a
// sharded cluster) plugs in as a Handler that only answers requests.
// ClientHandshake is the dialing side's half of the handshake.
//
// # Request handling
//
// A connection opens with the handshake (Hello/ServerHello) and then
// carries requests answered strictly in order, so clients may pipeline.
// Request-level failures (a bad query, a batch conflict) are answered by
// the Handler with an Error frame and the connection stays usable;
// protocol-level failures (a torn frame, a checksum mismatch, an oversized
// frame, an unexpected opcode) poison the stream and close the connection —
// after an Error frame describing the reason, when the stream is still
// writable.
//
// # Shutdown ordering
//
// Shutdown closes the listener (no new connections), then interrupts every
// connection's pending read; a handler mid-request finishes writing its
// response before exiting, so no accepted request is abandoned. Only after
// every handler has returned — or the context expires and the connections
// are force-closed — should the front end release what requests use (the
// database, the shard connections). See the Network service section of
// DESIGN.md.

// RowChunkSize bounds how many result rows travel in one RowChunk frame.
// Chunking keeps every frame small regardless of result size, so a slow
// client never forces the sender to buffer a whole result in one frame.
// Chunks are additionally bounded by encoded bytes (see Conn.WriteResult),
// so wide rows cannot push a frame past the wire limit either.
const RowChunkSize = 256

// Options are the settings every front end of the protocol shares; the
// zero value of each field selects its default.
type Options struct {
	// Info is the human-readable identity sent in the handshake.
	Info string
	// MaxFrame bounds the payload of a single protocol frame in both
	// directions (0 means DefaultMaxFrame).
	MaxFrame int
	// RequestTimeout bounds each request: the response write carries a
	// deadline, and a front end bounds whatever the request waits on (a
	// batch commit, a backend fan-out) by the same duration. 0 = none.
	RequestTimeout time.Duration
	// MaxConns bounds concurrently served connections (0 = unbounded). At
	// the bound the endpoint stops accepting; excess dials queue in the OS
	// listen backlog until a slot frees, so overload degrades into latency
	// instead of goroutine growth.
	MaxConns int
	// Logf is a Printf-style logger for structured one-line events (a
	// recovered panic here; front ends add their own). nil disables logging.
	Logf func(format string, args ...interface{})
}

// A Handler is what differs between front ends: what the handshake
// announces and how a request is answered.
type Handler interface {
	// Announce fills in the front end's fields of the ServerHello about to
	// be sent (its shard map); Version and Info are already set.
	Announce(hello *Msg)
	// ServeRequest answers one request on c. The returned error reports a
	// failure to write the response, or a request after which the stream
	// cannot continue (an out-of-place opcode) — fatal for the connection,
	// which is flushed and closed; request-level failures are answered with
	// a coded Error frame and return nil. A panic is converted into an
	// internal-error response and that connection's demise — the process,
	// and every other connection, keeps serving.
	ServeRequest(c *Conn, req Msg) error
}

// A Conn is the response side of one session, as a Handler sees it: frames
// written to it are buffered and flushed once the request is answered.
type Conn struct {
	*Writer
	bw *bufio.Writer
	ep *Endpoint
}

// Flush pushes buffered frames to the peer. The request loop flushes after
// every response; only the handler of a FollowWAL request — an unbounded
// stream, ended by returning a non-nil error when the peer goes away or
// Endpoint.Done closes — flushes as it goes.
func (c *Conn) Flush() error { return c.bw.Flush() }

// WriteResult streams one query result: a RowHeader and chunked rows when
// the result has columns, then a ResultEnd carrying affected and the WAL
// position. Chunks are bounded both by row count and by encoded bytes, so
// wide rows cannot grow a frame past the wire limit and kill the connection
// mid-stream; a single row that cannot fit any frame is answered with an
// in-stream Error (which the client treats as the request's failure)
// instead of a dead connection.
func (c *Conn) WriteResult(cols []string, rows [][]val.Value, affected, epoch, pos uint64) error {
	if len(cols) > 0 {
		if err := c.Write(Msg{Kind: KindRowHeader, Cols: cols}); err != nil {
			return err
		}
		// Leave generous headroom under the frame limit for the chunk's
		// own framing and count prefixes.
		budget := c.maxFrame - c.maxFrame/8
		start, bytes := 0, 0
		flush := func(end int) error {
			if end == start {
				return nil
			}
			err := c.Write(Msg{Kind: KindRowChunk, Rows: rows[start:end]})
			start, bytes = end, 0
			return err
		}
		for i, row := range rows {
			sz := RowSize(row)
			if sz > budget {
				return c.Write(Errorf("%s: result row %d encodes to %d bytes, beyond the %d-byte frame limit", c.ep.name, i, sz, c.maxFrame))
			}
			if bytes+sz > budget {
				if err := flush(i); err != nil {
					return err
				}
			}
			bytes += sz
			if i-start+1 >= RowChunkSize {
				if err := flush(i + 1); err != nil {
					return err
				}
			}
		}
		if err := flush(len(rows)); err != nil {
			return err
		}
	}
	return c.Write(Msg{Kind: KindResultEnd, Affected: affected, Epoch: epoch, Pos: pos})
}

// An Endpoint serves the protocol on one listener, one goroutine per
// connection. Create with NewEndpoint, start with Serve, stop with
// Shutdown.
type Endpoint struct {
	name string // prefix of error texts and log lines: "server", "router"
	h    Handler
	opts Options

	// Accept gate (Options.MaxConns): a slot is taken before Accept, so past
	// the bound the endpoint simply stops accepting and excess clients queue
	// in the OS listen backlog — backpressure instead of unbounded handler
	// goroutines. nil means unbounded.
	sem  chan struct{}
	stop chan struct{} // closed (under mu) by Shutdown; unblocks a gated accept loop

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	handlers sync.WaitGroup
}

// NewEndpoint returns an endpoint answering requests through h. name
// prefixes the endpoint's own error texts and log lines.
func NewEndpoint(name string, h Handler, o Options) *Endpoint {
	e := &Endpoint{name: name, h: h, opts: o, stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	if o.MaxConns > 0 {
		e.sem = make(chan struct{}, o.MaxConns)
	}
	return e
}

// Done is closed when Shutdown begins; a streaming handler watches it.
func (e *Endpoint) Done() <-chan struct{} { return e.stop }

func (e *Endpoint) shuttingDown() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener failure. Each connection is handled on its own goroutine.
func (e *Endpoint) Serve(ln net.Listener) error {
	e.mu.Lock()
	if e.shuttingDown() {
		e.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: Serve after Shutdown", e.name)
	}
	if e.ln != nil {
		e.mu.Unlock()
		return fmt.Errorf("%s: already serving", e.name)
	}
	e.ln = ln
	e.mu.Unlock()

	for {
		// The accept gate is taken before Accept: at the connection bound
		// the loop parks here and excess dials wait in the listen backlog.
		if e.sem != nil {
			select {
			case e.sem <- struct{}{}:
			case <-e.stop:
				return nil
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			e.releaseSlot()
			if e.shuttingDown() {
				return nil
			}
			return fmt.Errorf("%s: accept: %w", e.name, err)
		}
		if !e.track(conn) {
			conn.Close() // raced Shutdown; refuse quietly
			e.releaseSlot()
			continue
		}
		go func() {
			defer e.releaseSlot()
			defer e.handlers.Done()
			defer e.untrack(conn)
			e.handle(conn)
		}()
	}
}

// releaseSlot returns an accept-gate slot (no-op when unbounded).
func (e *Endpoint) releaseSlot() {
	if e.sem != nil {
		<-e.sem
	}
}

// track registers a connection and takes its handler slot in the wait
// group. The Add happens under the same mutex that Shutdown takes before
// waiting, so Add is strictly ordered against handlers.Wait — an Add
// outside the lock could land while a draining Shutdown's Wait sits at
// zero, the documented WaitGroup misuse panic.
func (e *Endpoint) track(conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shuttingDown() {
		return false
	}
	e.conns[conn] = struct{}{}
	e.handlers.Add(1)
	return true
}

func (e *Endpoint) untrack(conn net.Conn) {
	e.mu.Lock()
	delete(e.conns, conn)
	e.mu.Unlock()
	conn.Close()
}

// Shutdown stops the endpoint gracefully: close the listener, interrupt
// every connection's pending read (a handler mid-request still writes its
// response), and wait for the handlers to drain. If ctx expires first the
// remaining connections are force-closed before Shutdown returns ctx's
// error. What the Handler serves from is not touched either way —
// releasing it is the front end's next step, after Shutdown returns.
func (e *Endpoint) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.shuttingDown() {
		close(e.stop)
	}
	ln := e.ln
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	// Wake handlers blocked between requests: an expired read deadline
	// fails the pending frame read, and the handler sees shutdown and
	// exits. Handlers inside a request keep running — only their next read
	// fails — so accepted requests drain.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		e.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		for c := range e.conns {
			c.Close()
		}
		e.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handle runs one connection: handshake, then the request loop. Reads and
// writes go through bufio so a streamed response costs one syscall per
// flush, not one per frame; every response is flushed before the next read.
func (e *Endpoint) handle(nc net.Conn) {
	bw := bufio.NewWriter(nc)
	r := NewReader(bufio.NewReader(nc), e.opts.MaxFrame)
	c := &Conn{Writer: NewWriter(bw, e.opts.MaxFrame), bw: bw, ep: e}

	hello, err := r.Read()
	if err != nil {
		e.abort(c, err)
		return
	}
	if hello.Kind != KindHello {
		c.Write(Errorf("%s: expected Hello, got %s", e.name, hello.Kind))
		c.Flush()
		return
	}
	if hello.Version != ProtoVersion {
		c.Write(Errorf("%s: protocol version %d not supported (%s speaks %d)",
			e.name, hello.Version, e.name, ProtoVersion))
		c.Flush()
		return
	}
	sh := ServerHello(e.opts.Info)
	e.h.Announce(&sh)
	if c.Write(sh) != nil || c.Flush() != nil {
		return
	}

	for {
		req, err := r.Read()
		if err != nil {
			// Clean close, a poisoned stream, or the shutdown poke — none
			// leave anything answerable.
			e.abort(c, err)
			return
		}
		// The per-request deadline covers the whole response write: a
		// client that stops draining cannot pin the handler forever. (A
		// replication stream is no bounded response and has none.)
		if e.opts.RequestTimeout > 0 && req.Kind != KindFollowWAL {
			nc.SetWriteDeadline(time.Now().Add(e.opts.RequestTimeout))
		}
		if err := e.serve(c, req); err != nil {
			// The stream is done for — but any Error frame explaining why
			// (an unexpected opcode, a recovered panic) is still sitting in
			// the buffer, and the promise is to describe the drop when the
			// stream is writable.
			c.Flush()
			return
		}
		if err := c.Flush(); err != nil {
			return
		}
		if e.opts.RequestTimeout > 0 {
			nc.SetWriteDeadline(time.Time{})
		}
		if e.shuttingDown() {
			return // drained the request that was already in flight
		}
	}
}

// abort reports a protocol-level failure on the way out when the stream
// may still be writable and the failure is worth describing (not a clean
// EOF, not the shutdown poke).
func (e *Endpoint) abort(c *Conn, err error) {
	if err == io.EOF || e.shuttingDown() {
		return
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return
	}
	c.Write(Errorf("%s: dropping connection: %v", e.name, err))
	c.Flush()
}

// panicHook, when non-nil, runs before each request is dispatched. It is
// the seam the panic-isolation tests use to make a handler blow up on
// cue; production never sets it.
var panicHook func(req Msg)

// serve dispatches one request to the Handler, isolating a panic to this
// connection.
func (e *Endpoint) serve(c *Conn, req Msg) (err error) {
	defer func() {
		if p := recover(); p != nil {
			c.Write(ErrorMsg(CodeInternal, fmt.Sprintf("%s: internal error serving %s: %v", e.name, req.Kind, p)))
			err = fmt.Errorf("%s: panic serving %s: %v", e.name, req.Kind, p)
			if e.opts.Logf != nil {
				e.opts.Logf("%s: recovered panic serving %s: %v", e.name, req.Kind, p)
			}
		}
	}()
	if panicHook != nil {
		panicHook(req)
	}
	return e.h.ServeRequest(c, req)
}

// ClientHandshake opens a session from the dialing side: it sends Hello,
// flushes w's buffer with flush, and returns the peer's ServerHello. A
// peer speaking another protocol revision, one that refuses with an Error
// frame (its text is kept), or one that answers with anything else fails
// the handshake; the caller sets whatever deadline should bound it.
func ClientHandshake(r *Reader, w *Writer, flush func() error) (Msg, error) {
	if err := w.Write(Hello()); err != nil {
		return Msg{}, err
	}
	if err := flush(); err != nil {
		return Msg{}, err
	}
	m, err := r.Read()
	if err != nil {
		return Msg{}, err
	}
	switch m.Kind {
	case KindServerHello:
		if m.Version != ProtoVersion {
			return Msg{}, fmt.Errorf("wire: peer speaks protocol %d, this build %d", m.Version, ProtoVersion)
		}
		return m, nil
	case KindError:
		return Msg{}, fmt.Errorf("wire: peer refused the session: %s", m.Text)
	default:
		return Msg{}, fmt.Errorf("wire: handshake answered with %s", m.Kind)
	}
}
