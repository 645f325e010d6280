// Package client is the Go client for a beliefserver: it speaks the
// internal/wire protocol over TCP and exposes the database's remote
// surface — BeliefSQL queries and scripts, atomic batches (which the
// server group-commits across clients), user registration, checkpointing.
//
//	cli, err := client.Dial("127.0.0.1:4045")
//	...
//	res, err := cli.Query(ctx, "select S.species from BELIEF 'Bob' Sightings S")
//	br, err := cli.ExecBatch(ctx, "insert into Sightings values ('s9','Bob','owl','d','l');")
//
// A Client is safe for concurrent use: it keeps a bounded pool of
// connections, checking one out per request, so concurrent callers issue
// requests in parallel (and their batches coalesce server-side into
// shared WAL fsyncs). Contexts cancel waiting at any point: cancellation
// mid-request abandons (and discards) the connection, and whether the
// server still applied an in-flight mutation is then unknowable — the
// inherent uncertainty of abandoning any remote write.
package client

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"beliefdb"
	"beliefdb/internal/wire"
)

// Result is a query result (columns, rows, affected count), shared with
// the embedded API.
type Result = beliefdb.Result

// BatchResult reports a committed batch, shared with the embedded API.
type BatchResult = beliefdb.BatchResult

// UserID identifies a registered user, shared with the embedded API.
type UserID = beliefdb.UserID

// ErrClosed is returned by every method after Close.
var ErrClosed = errors.New("client: closed")

// Sentinels classifying server-reported failures by their stable wire
// error codes — never by matching error text. Test with errors.Is; the
// error's message stays the server's verbatim.
var (
	// ErrDegraded: the server's database is in its sticky read-only state
	// (a WAL failure); reads keep working, writes are refused. Retrying a
	// write is useless until the operator restarts the server.
	ErrDegraded = errors.New("client: server is degraded (read-only)")
	// ErrReadOnly: the server's database is closed to mutations.
	ErrReadOnly = errors.New("client: server database is read-only")
	// ErrParse: the statement is syntactically invalid and can never
	// succeed.
	ErrParse = errors.New("client: parse error")
	// ErrRetryExhausted wraps the last transport error after every
	// automatic retry failed.
	ErrRetryExhausted = errors.New("client: retries exhausted")
	// ErrRemote matches every server-reported failure regardless of its
	// code, letting callers separate "the server answered no" (the
	// connection is fine, retrying is pointless) from transport failures.
	ErrRemote = errors.New("client: server-reported error")
	// ErrStaleRead: a replica refused the read because it has not yet
	// applied up to the request's read-your-writes watermark. The routed
	// client (DialRouted) handles it by falling back to the primary;
	// direct callers can retry or relax the watermark. Shared with the
	// embedded API so either sentinel matches.
	ErrStaleRead = beliefdb.ErrStaleRead
	// ErrWrongShard: a shard server refused a write because a row key in
	// it hashes to a different shard of the cluster. Retrying the same
	// server is useless — route writes through beliefrouter, which owns
	// the shard map.
	ErrWrongShard = errors.New("client: key belongs to a different shard")
)

// ShardInfo is the shard map a server announces in its handshake: the
// server's own shard id (-1 for a beliefrouter, which fronts the whole
// cluster), the cluster's shard count, and the partition seed row keys are
// hashed with. A server outside any sharded cluster announces Count 0.
type ShardInfo struct {
	ID    int
	Count int
	Seed  uint64
}

// Sharded reports whether the server is part of a sharded cluster.
func (si ShardInfo) Sharded() bool { return si.Count > 0 }

// Position is a point in the primary's WAL: the watermark write
// acknowledgements carry and replicas are measured against. Positions are
// ordered by epoch, then offset.
type Position struct {
	Epoch uint64 // WAL epoch (bumped by each checkpoint)
	Pos   uint64 // records committed under the epoch
}

// Covers reports whether a state at position p has applied everything up
// to and including q. Epochs only grow, so a later epoch covers every
// earlier one regardless of offsets.
func (p Position) Covers(q Position) bool {
	return p.Epoch > q.Epoch || (p.Epoch == q.Epoch && p.Pos >= q.Pos)
}

// ReplicaStatus reports a server's replication role and progress (see
// Client.ReplicaStatus).
type ReplicaStatus struct {
	Role      string   // "primary" or "replica"
	Position  Position // committed (primary) or applied (replica) WAL position
	Connected bool     // replica only: whether the follow stream is live
}

// Options configure a Client; the zero value of each field selects the
// default.
type Options struct {
	// PoolSize bounds the open connections (default 4). Requests beyond
	// the bound wait for a connection instead of dialing more.
	PoolSize int
	// MaxFrame bounds a protocol frame's payload in both directions
	// (default wire.DefaultMaxFrame). Must match the server's bound: a
	// response larger than this is refused and the connection dropped.
	MaxFrame int
	// DialTimeout bounds each TCP dial + handshake (default 10s).
	DialTimeout time.Duration
	// MaxRetries bounds automatic retries after a transport failure
	// (default 3; negative disables retrying). Only transport errors are
	// retried — a reconnect is transparent because discarded connections
	// are redialed — and only on requests that are safe to repeat: reads
	// (Query, Ping), idempotent operations (Checkpoint), and ExecBatch,
	// whose idempotency token makes the server apply the batch exactly
	// once however many times it is retried. Server-answered errors are
	// never retried.
	MaxRetries int
	// RetryBackoff is the first retry's backoff (default 25ms); each
	// further retry doubles it, jittered ±50%, up to RetryMaxBackoff.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the backoff growth (default 1s).
	RetryMaxBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.RetryMaxBackoff <= 0 {
		o.RetryMaxBackoff = time.Second
	}
	return o
}

// Client is a pooled connection to one beliefserver.
type Client struct {
	addr string
	opts Options

	sem chan struct{} // counting semaphore: one token per in-flight request

	mu     sync.Mutex
	idle   []*conn
	closed bool
	shard  ShardInfo // from the most recent handshake
}

// conn is one established, handshaken connection.
type conn struct {
	c net.Conn
	r *wire.Reader
	w *wire.Writer
	b *bufio.Writer
}

// Dial connects to a beliefserver and verifies the protocol handshake on
// one eagerly opened connection (kept for the pool), so a wrong address or
// an incompatible server fails here rather than on the first request.
func Dial(addr string, opts ...Options) (*Client, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	cli := &Client{addr: addr, opts: o, sem: make(chan struct{}, o.PoolSize)}
	cn, err := cli.dial()
	if err != nil {
		return nil, err
	}
	cli.idle = []*conn{cn}
	return cli, nil
}

// dial opens and handshakes one connection.
func (cli *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", cli.addr, cli.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", cli.addr, err)
	}
	cn := &conn{c: nc, b: bufio.NewWriter(nc)}
	cn.r = wire.NewReader(bufio.NewReader(nc), cli.opts.MaxFrame)
	cn.w = wire.NewWriter(cn.b, cli.opts.MaxFrame)

	nc.SetDeadline(time.Now().Add(cli.opts.DialTimeout))
	defer nc.SetDeadline(time.Time{})
	m, err := wire.ClientHandshake(cn.r, cn.w, cn.b.Flush)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake with %s: %w", cli.addr, err)
	}
	cli.mu.Lock()
	cli.shard = ShardInfo{ID: int(m.ShardID), Count: int(m.ShardCount), Seed: m.ShardSeed}
	cli.mu.Unlock()
	return cn, nil
}

// send writes one frame and flushes it.
func (cn *conn) send(m wire.Msg) error {
	if err := cn.w.Write(m); err != nil {
		return err
	}
	return cn.b.Flush()
}

// exchange sends a request that is answered by a single frame and returns
// that frame when it is of kind want; an Error frame becomes the
// server-reported error it carries.
func (cn *conn) exchange(req wire.Msg, want wire.Kind) (wire.Msg, error) {
	if err := cn.send(req); err != nil {
		return wire.Msg{}, err
	}
	m, err := cn.r.Read()
	if err != nil {
		return wire.Msg{}, fmt.Errorf("client: awaiting %s: %w", want, eofAsUnexpected(err))
	}
	switch m.Kind {
	case want:
		return m, nil
	case wire.KindError:
		return wire.Msg{}, errRemote{code: m.Code, msg: m.Text}
	default:
		return wire.Msg{}, fmt.Errorf("client: unexpected %s after %s", m.Kind, req.Kind)
	}
}

// get checks a connection out of the pool, dialing a fresh one when the
// pool has capacity but no idle connection. It blocks while PoolSize
// requests are in flight, honouring ctx.
func (cli *Client) get(ctx context.Context) (*conn, error) {
	select {
	case cli.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	cli.mu.Lock()
	if cli.closed {
		cli.mu.Unlock()
		<-cli.sem
		return nil, ErrClosed
	}
	if n := len(cli.idle); n > 0 {
		cn := cli.idle[n-1]
		cli.idle = cli.idle[:n-1]
		cli.mu.Unlock()
		return cn, nil
	}
	cli.mu.Unlock()
	cn, err := cli.dial()
	if err != nil {
		<-cli.sem
		return nil, err
	}
	return cn, nil
}

// put returns a healthy connection to the pool.
func (cli *Client) put(cn *conn) {
	cli.mu.Lock()
	if cli.closed {
		cli.mu.Unlock()
		cn.c.Close()
	} else {
		cli.idle = append(cli.idle, cn)
		cli.mu.Unlock()
	}
	<-cli.sem
}

// discard drops a connection whose stream state is unknown (an I/O error,
// a cancellation mid-request): the next request dials fresh.
func (cli *Client) discard(cn *conn) {
	cn.c.Close()
	<-cli.sem
}

// Close releases the pool: idle connections close immediately and new
// requests fail with ErrClosed. Requests already in flight are not
// interrupted — they run to completion on their checked-out connections,
// which are then closed on return instead of rejoining the pool. Use
// request contexts to cut work short.
func (cli *Client) Close() error {
	cli.mu.Lock()
	if cli.closed {
		cli.mu.Unlock()
		return nil
	}
	cli.closed = true
	idle := cli.idle
	cli.idle = nil
	cli.mu.Unlock()
	for _, cn := range idle {
		cn.c.Close()
	}
	return nil
}

// do runs one request/response exchange on a pooled connection. fn sends
// the request and reads the complete response; a watchdog goroutine turns
// ctx cancellation into an immediate deadline so fn's blocking I/O
// returns. Connections survive request-level errors (the server answered)
// and are discarded on I/O errors or cancellation.
func (cli *Client) do(ctx context.Context, fn func(*conn) error) error {
	cn, err := cli.get(ctx)
	if err != nil {
		return err
	}
	// The watchdog turns cancellation into an immediate deadline. It is
	// joined (not just signalled) after fn returns, so by the time `fired`
	// is read the poke either fully happened or never will — a half-poked
	// connection can never slip back into the pool.
	fired := false
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			fired = true
			cn.c.SetDeadline(time.Now()) // unblock fn's reads and writes
		case <-stop:
		}
	}()
	err = fn(cn)
	close(stop)
	<-done
	if fired {
		// The poke may have raced a completed response; either way the
		// stream position is unknowable, so the connection dies and the
		// context's error wins.
		cli.discard(cn)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	if err != nil {
		var re errRemote
		if errors.As(err, &re) {
			// The server answered with an Error frame: the conversation
			// stayed in sync and the connection is healthy.
			cli.put(cn)
			return err
		}
		cli.discard(cn)
		return err
	}
	cli.put(cn)
	return nil
}

// errRemote marks a request-level failure reported by the server: the
// conversation stayed in sync, so the connection is reusable — and never
// retried, because the server already gave its answer. The wire error code
// makes the error match the package sentinels under errors.Is while the
// message stays the server's verbatim.
type errRemote struct {
	code wire.ErrCode
	msg  string
}

func (e errRemote) Error() string { return e.msg }

func (e errRemote) Is(target error) bool {
	switch target {
	case ErrRemote:
		return true
	case ErrDegraded:
		return e.code == wire.CodeDegraded
	case ErrReadOnly:
		return e.code == wire.CodeReadOnly
	case ErrParse:
		return e.code == wire.CodeParse
	case ErrStaleRead:
		return e.code == wire.CodeStaleRead
	case ErrWrongShard:
		return e.code == wire.CodeWrongShard
	}
	return false
}

// retryable reports whether an error came from the transport (a dropped
// connection, a dial failure, a torn frame) rather than from the server or
// the caller — the only failures a retry can fix.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var re errRemote
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrClosed) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// doRetry runs do under the automatic retry policy: transport failures are
// retried with exponential backoff and ±50% jitter, reconnecting
// transparently (the failed connection was discarded, so the next attempt
// dials fresh). The caller guarantees fn is safe to repeat. When every
// attempt fails the last error is wrapped in ErrRetryExhausted.
func (cli *Client) doRetry(ctx context.Context, fn func(*conn) error) error {
	backoff := cli.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = cli.do(ctx, fn)
		if err == nil || !retryable(err) {
			return err
		}
		if attempt >= cli.opts.MaxRetries {
			break
		}
		// Full jitter around the midpoint: backoff/2 .. 3*backoff/2.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)+1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > cli.opts.RetryMaxBackoff {
			backoff = cli.opts.RetryMaxBackoff
		}
	}
	return fmt.Errorf("%w (%d attempts): %w", ErrRetryExhausted, cli.opts.MaxRetries+1, err)
}

// NewToken returns a fresh idempotency token for ExecBatchToken: 16 random
// bytes, hex-encoded. ExecBatch draws one per call.
func NewToken() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand practically cannot fail; fall back to math/rand
		// rather than aborting the batch (uniqueness, not secrecy, is what
		// the token needs).
		for i := range b {
			b[i] = byte(rand.Int())
		}
	}
	return hex.EncodeToString(b[:])
}

// Query runs one BeliefSQL statement (or script) and returns its result.
// Being a read, it is automatically retried across transient connection
// failures (see Options.MaxRetries).
func (cli *Client) Query(ctx context.Context, beliefSQL string) (*Result, error) {
	res, _, err := cli.roundTrip(ctx, wire.Query(beliefSQL), true)
	return res, err
}

// queryAt is Query carrying a read-your-writes watermark: a replica
// answers only once it has applied up to at, refusing with ErrStaleRead
// otherwise. The zero Position imposes nothing (a plain Query).
func (cli *Client) queryAt(ctx context.Context, beliefSQL string, at Position) (*Result, error) {
	res, _, err := cli.roundTrip(ctx, wire.QueryAt(beliefSQL, at.Epoch, at.Pos), true)
	return res, err
}

// QueryAt is Query carrying an explicit read watermark: a replica that has
// not applied up to at refuses with ErrStaleRead instead of answering from
// older state. A primary (or a caught-up replica) answers normally; the
// zero Position makes QueryAt equivalent to Query. The Routed client uses
// this internally for read-your-writes; it is exported for callers that
// track positions themselves (e.g. pinning several reads to one snapshot
// of the stream).
func (cli *Client) QueryAt(ctx context.Context, beliefSQL string, at Position) (*Result, error) {
	return cli.queryAt(ctx, beliefSQL, at)
}

// execPos is Exec also reporting the server's WAL position after the
// script committed — the watermark for read-your-writes routing.
func (cli *Client) execPos(ctx context.Context, beliefSQL string) (*Result, Position, error) {
	return cli.roundTrip(ctx, wire.Exec(beliefSQL), false)
}

// Exec runs a BeliefSQL script for effect; rows, if the script ends in a
// SELECT, are returned like Query's. Exec carries no idempotency token, so
// it is never retried automatically: a retried script could apply twice.
// Use ExecBatch for retry-safe mutations.
func (cli *Client) Exec(ctx context.Context, beliefSQL string) (*Result, error) {
	res, _, err := cli.roundTrip(ctx, wire.Exec(beliefSQL), false)
	return res, err
}

// roundTrip sends one result-bearing request and consumes its stream.
func (cli *Client) roundTrip(ctx context.Context, req wire.Msg, retry bool) (*Result, Position, error) {
	var res *Result
	var pos Position
	fn := func(cn *conn) error {
		if err := cn.send(req); err != nil {
			return err
		}
		r, p, err := readResult(cn)
		res, pos = r, p
		return err
	}
	var err error
	if retry {
		err = cli.doRetry(ctx, fn)
	} else {
		err = cli.do(ctx, fn)
	}
	return res, pos, err
}

// readResult consumes one result stream: optional RowHeader + RowChunks,
// then ResultEnd; or an Error frame. The ResultEnd of a mutation carries
// the server's WAL position.
func readResult(cn *conn) (*Result, Position, error) {
	res := &Result{}
	sawHeader := false
	for {
		m, err := cn.r.Read()
		if err != nil {
			return nil, Position{}, fmt.Errorf("client: mid-result: %w", eofAsUnexpected(err))
		}
		switch m.Kind {
		case wire.KindError:
			return nil, Position{}, errRemote{code: m.Code, msg: m.Text}
		case wire.KindRowHeader:
			if sawHeader {
				return nil, Position{}, fmt.Errorf("client: duplicate row header")
			}
			sawHeader = true
			res.Columns = m.Cols
		case wire.KindRowChunk:
			if !sawHeader {
				return nil, Position{}, fmt.Errorf("client: row chunk before header")
			}
			res.Rows = append(res.Rows, m.Rows...)
		case wire.KindResultEnd:
			res.Affected = int(m.Affected)
			return res, Position{Epoch: m.Epoch, Pos: m.Pos}, nil
		default:
			return nil, Position{}, fmt.Errorf("client: unexpected %s in result stream", m.Kind)
		}
	}
}

// ExecBatch runs a semicolon-separated BeliefSQL script of INSERT and
// DELETE statements as one atomic batch on the server. Concurrent
// ExecBatch calls — from this client or others — are group-committed
// together server-side, sharing a single WAL fsync.
//
// Every call carries a fresh client-generated idempotency token, reused
// across its automatic retries: if the connection dies after the server
// applied the batch but before the acknowledgement arrived, the retried
// request is answered from the server's applied-token table instead of
// applying again — exactly once, even across a server restart (the token
// is journaled in the WAL and recovered with the data).
func (cli *Client) ExecBatch(ctx context.Context, script string) (BatchResult, error) {
	out, _, err := cli.execBatchPos(ctx, script)
	return out, err
}

// ExecBatchToken is ExecBatch under a caller-supplied idempotency token
// instead of a freshly generated one. Two uses: replaying a batch whose
// first acknowledgement was lost beyond the automatic retries (the same
// token makes the server answer with the original outcome), and routing —
// beliefrouter derives one deterministic sub-token per shard from the
// client's token, so a retried routed batch applies exactly once per shard
// even when the first attempt committed on only some of them. An empty
// token disables the exactly-once guarantee.
func (cli *Client) ExecBatchToken(ctx context.Context, script, token string) (BatchResult, error) {
	out, _, err := cli.execBatchTokenPos(ctx, script, token)
	return out, err
}

// execBatchPos is ExecBatch also reporting the server's WAL position after
// the batch committed.
func (cli *Client) execBatchPos(ctx context.Context, script string) (BatchResult, Position, error) {
	return cli.execBatchTokenPos(ctx, script, NewToken())
}

// execBatchTokenPos is the shared batch round trip: a given token, the
// committed WAL position reported back.
func (cli *Client) execBatchTokenPos(ctx context.Context, script, token string) (BatchResult, Position, error) {
	var out BatchResult
	var pos Position
	err := cli.doRetry(ctx, func(cn *conn) error {
		m, err := cn.exchange(wire.ExecBatch(script, token), wire.KindBatchDone)
		out = BatchResult{Applied: int(m.Applied), Changed: int(m.Changed)}
		pos = Position{Epoch: m.Epoch, Pos: m.Pos}
		return err
	})
	return out, pos, err
}

// AddUser registers a community member on the server and returns their id.
// A server commits the registration as a batch of one, handing out uids 1,
// 2, … in registration order; a router registers the name on shard 0,
// which alone allocates uids, and copies shard 0's Users table to every
// other shard in uid order. AddUser is not retried automatically: it
// carries no idempotency token, and a duplicate registration is a
// server-side error the caller should see.
func (cli *Client) AddUser(ctx context.Context, name string) (UserID, error) {
	uid, _, err := cli.addUserPos(ctx, name)
	return uid, err
}

// addUserPos is AddUser also reporting the server's WAL position after the
// registration committed.
func (cli *Client) addUserPos(ctx context.Context, name string) (UserID, Position, error) {
	var uid UserID
	var pos Position
	err := cli.do(ctx, func(cn *conn) error {
		m, err := cn.exchange(wire.AddUser(name), wire.KindUserAdded)
		uid = UserID(m.UID)
		pos = Position{Epoch: m.Epoch, Pos: m.Pos}
		return err
	})
	return uid, pos, err
}

// ReplicaStatus reports the server's replication role and progress: a
// primary answers with its committed WAL position, a replica with the
// position it has applied through and whether its follow stream is live.
// Retried like any read.
func (cli *Client) ReplicaStatus(ctx context.Context) (ReplicaStatus, error) {
	var st ReplicaStatus
	err := cli.doRetry(ctx, func(cn *conn) error {
		m, err := cn.exchange(wire.Msg{Kind: wire.KindReplicaStatus}, wire.KindStatus)
		st = ReplicaStatus{
			Role:      m.Info,
			Position:  Position{Epoch: m.Epoch, Pos: m.Pos},
			Connected: m.Affected == 1,
		}
		return err
	})
	return st, err
}

// Checkpoint snapshots a durable server-side database and truncates its
// write-ahead log. Checkpointing is idempotent, so it is retried
// automatically across transient connection failures.
func (cli *Client) Checkpoint(ctx context.Context) error {
	return cli.fieldless(ctx, wire.Msg{Kind: wire.KindCheckpoint}, wire.KindOK)
}

// Ping verifies the server is reachable and answering; retried like any
// read.
func (cli *Client) Ping(ctx context.Context) error {
	return cli.fieldless(ctx, wire.Msg{Kind: wire.KindPing}, wire.KindPong)
}

// Shard returns the shard map the server announced in the most recent
// connection handshake. The zero-Count ShardInfo means the server is not
// sharded (or no connection has been established yet — Dial handshakes
// eagerly, so after a successful Dial the value is authoritative).
func (cli *Client) Shard() ShardInfo {
	cli.mu.Lock()
	defer cli.mu.Unlock()
	return cli.shard
}

func (cli *Client) fieldless(ctx context.Context, req wire.Msg, want wire.Kind) error {
	return cli.doRetry(ctx, func(cn *conn) error {
		_, err := cn.exchange(req, want)
		return err
	})
}

// eofAsUnexpected turns a clean EOF inside a response into the unexpected
// kind it is: the server vanished mid-conversation.
func eofAsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
