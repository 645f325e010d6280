// Package router implements beliefrouter, the scatter-gather front door of
// a hash-partitioned beliefdb cluster. A Router speaks the same wire
// protocol as a beliefserver — clients cannot tell the difference except
// for the ShardID -1 it announces — and fronts N shard servers, each of
// which owns the row keys that hash to it under the cluster's partition
// map (internal/shard) and may bring its own read replicas.
//
// Requests route as follows:
//
//   - Batch writes (ExecBatch) are split: each INSERT's VALUES rows go to
//     the shard owning their row key, DELETEs broadcast to every shard
//     (each shard resolves only its local matches), and the per-shard
//     slices commit under tokens derived from the client's idempotency
//     token, so a retried batch applies exactly once per shard even when a
//     previous attempt committed on some shards and failed on others.
//   - Queries over one partitioned relation fan out to every shard and the
//     streamed results merge: concatenation plus a global DISTINCT pass
//     for per-tuple results, partial-aggregate recombination for GROUP BY
//     and aggregate queries, then ORDER BY/LIMIT — reusing the query
//     layer's own post-processing (query.DedupeRows, query.SortRows) so
//     the merged answer matches a single node's byte for byte.
//   - Queries touching no partitioned relation (Users only, EXPLAIN) go to
//     shard 0 alone.
//   - AddUser registers on shard 0, which alone allocates uids, and then
//     brings every other shard's replicated Users table up to shard 0's
//     in uid order, so every shard binds each name to the same uid and a
//     registration a dead router left half done is completed by the next.
//
// Reads go through each shard's replicas (client.Routed) carrying that
// shard's read-your-writes watermark, which the router advances on every
// write it routes there — a read after a routed write observes it on every
// shard, wherever it is served.
//
// Why the merge is sound: the partition function hashes the row key, so
// every belief annotation of one tuple — whatever its believer — lives on
// one shard, and any single-relation BeliefSQL query decomposes into
// per-tuple work. Cross-shard joins (two partitioned FROM items) are the
// one shape that does not, and the router refuses them. See the Sharding
// section of DESIGN.md.
package router

import (
	"context"
	"errors"
	"fmt"
	"net"

	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/shard"
	"beliefdb/internal/wire"
)

// A Backend names one shard: its primary server and any read replicas.
type Backend struct {
	Primary  string
	Replicas []string
}

// A Router fronts a sharded cluster. Create with New, start with Serve,
// stop with Shutdown (which also closes the shard connections). The
// connection lifecycle is wire.Endpoint's, exactly as for a beliefserver;
// the Router is the wire.Handler that answers requests from the shards.
type Router struct {
	shards []*client.Routed
	smap   shard.Map

	opts  wire.Options
	ep    *wire.Endpoint
	copts []client.Options
}

// Option configures a Router.
type Option func(*Router)

// WithEndpoint sets the options the router shares with every front end of
// the protocol (identity, frame bound, request timeout, connection bound,
// logger), replacing all of them. The request timeout also covers every
// backend round trip a routed request fans out to.
func WithEndpoint(o wire.Options) Option { return func(r *Router) { r.opts = o } }

// WithClientOptions sets the client options used for every backend
// connection pool.
func WithClientOptions(o client.Options) Option {
	return func(r *Router) { r.copts = []client.Options{o} }
}

// New dials every shard and verifies the cluster's shard map: backend i —
// its primary and every replica — must announce shard identity i with the
// same shard count and partition seed as every other backend. A server
// that announces nothing (a plain unsharded beliefserver) is refused —
// routing writes by a partition map the server does not enforce would
// corrupt silently on misconfiguration — and so is a replica of another
// shard, whose rows every replica-routed read would otherwise serve.
func New(backends []Backend, opts ...Option) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: no shard backends configured")
	}
	r := &Router{}
	for _, o := range opts {
		o(r)
	}
	if r.opts.Info == "" {
		r.opts.Info = "beliefrouter"
	}
	for i, b := range backends {
		rt, err := client.DialRouted(b.Primary, b.Replicas, r.copts...)
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		r.shards = append(r.shards, rt)
		want := shard.Identity{ID: i, Count: len(backends), Seed: r.smap.Seed}
		if i == 0 {
			// Shard 0 sets the seed every other server must share.
			want.Seed = rt.Primary().Shard().Seed
			r.smap = shard.Map{Count: want.Count, Seed: want.Seed}
		}
		addrs := append([]string{b.Primary}, b.Replicas...)
		for j, c := range append([]*client.Client{rt.Primary()}, rt.Replicas()...) {
			if err := want.Check(addrs[j], shard.Identity(c.Shard())); err != nil {
				r.closeShards()
				return nil, fmt.Errorf("router: %w", err)
			}
		}
	}
	r.ep = wire.NewEndpoint("router", r, r.opts)
	return r, nil
}

// Map returns the cluster's partition map, as verified against the shards.
func (r *Router) Map() shard.Map { return r.smap }

// Shards exposes the per-shard routed clients, in shard order — for the
// test harness; request routing should go through the wire protocol.
func (r *Router) Shards() []*client.Routed { return r.shards }

func (r *Router) closeShards() {
	for _, s := range r.shards {
		s.Close()
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener failure.
func (r *Router) Serve(ln net.Listener) error { return r.ep.Serve(ln) }

// Shutdown stops the router gracefully (see wire.Endpoint.Shutdown) and
// then — handlers drained, or force-closed when ctx expired first — closes
// the shard connections.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.ep.Shutdown(ctx)
	r.closeShards()
	return err
}

// Announce adds the cluster's shard map to the handshake (wire.Handler).
func (r *Router) Announce(hello *wire.Msg) {
	hello.ShardID = -1 // a router fronts the cluster, it is no shard itself
	hello.ShardCount = uint64(r.smap.Count)
	hello.ShardSeed = r.smap.Seed
}

// classify maps a routing failure to its stable wire error code. Failures
// reported by shard servers arrive as client sentinels carrying the
// shard's code; the router's own refusals (cross-shard joins, unsupported
// statements) and parse failures classify directly.
func classify(err error) wire.ErrCode {
	switch {
	case errors.Is(err, bsql.ErrParse) || errors.Is(err, client.ErrParse):
		return wire.CodeParse
	case errors.Is(err, client.ErrDegraded):
		return wire.CodeDegraded
	case errors.Is(err, client.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, client.ErrStaleRead):
		return wire.CodeStaleRead
	case errors.Is(err, client.ErrWrongShard):
		return wire.CodeWrongShard
	default:
		return wire.CodeInternal
	}
}

func errFrame(err error) wire.Msg {
	return wire.ErrorMsg(classify(err), err.Error())
}

// reqContext bounds one routed request's backend fan-out.
func (r *Router) reqContext() (context.Context, context.CancelFunc) {
	if r.opts.RequestTimeout > 0 {
		return context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	}
	return context.Background(), func() {}
}

// ServeRequest answers one request from the shards (wire.Handler):
// request-level failures become a coded Error frame and return nil.
func (r *Router) ServeRequest(w *wire.Conn, req wire.Msg) error {
	ctx, cancel := r.reqContext()
	defer cancel()
	switch req.Kind {
	case wire.KindQuery:
		res, err := r.runReadScript(ctx, req.Text)
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.WriteResult(res.Columns, res.Rows, uint64(res.Affected), 0, 0)

	case wire.KindExec:
		stmts, err := bsql.ParseAll(req.Text)
		if err != nil {
			return w.Write(errFrame(err))
		}
		if bsql.ReadOnly(stmts) {
			res, err := r.runReadStmts(ctx, stmts)
			if err != nil {
				return w.Write(errFrame(err))
			}
			return w.WriteResult(res.Columns, res.Rows, uint64(res.Affected), 0, 0)
		}
		// A mutating Exec routes like an untokened batch; the statements
		// must all be batchable (INSERT/DELETE) for the split to apply.
		br, err := r.routeBatchStmts(ctx, stmts, "")
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{Kind: wire.KindResultEnd, Affected: uint64(br.Applied)})

	case wire.KindExecBatch:
		br, err := r.routeBatch(ctx, req.Text, req.Token)
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{
			Kind:    wire.KindBatchDone,
			Applied: uint64(br.Applied),
			Changed: uint64(br.Changed),
		})

	case wire.KindAddUser:
		uid, err := r.addUser(ctx, req.Text)
		if err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{Kind: wire.KindUserAdded, UID: int64(uid)})

	case wire.KindCheckpoint:
		if err := r.checkpointAll(ctx); err != nil {
			return w.Write(errFrame(err))
		}
		return w.Write(wire.Msg{Kind: wire.KindOK})

	case wire.KindReplicaStatus:
		return w.Write(wire.Msg{Kind: wire.KindStatus, Info: "router", Affected: 1})

	case wire.KindPing:
		return w.Write(wire.Msg{Kind: wire.KindPong})

	case wire.KindFollowWAL:
		// Each shard has its own WAL; there is no cluster-wide stream to
		// serve. Replicas follow their shard's primary directly.
		w.Write(wire.ErrorMsg(wire.CodeInternal, "router: a router serves no WAL stream; replicas follow their shard's primary"))
		return fmt.Errorf("router: FollowWAL on a router connection")

	default:
		w.Write(wire.Errorf("router: unexpected %s request", req.Kind))
		return fmt.Errorf("router: unexpected %s request", req.Kind)
	}
}

// runReadScript parses and runs a read-only script, returning the last
// statement's result (like DB.ExecScript).
func (r *Router) runReadScript(ctx context.Context, script string) (*client.Result, error) {
	stmts, err := bsql.ParseAll(script)
	if err != nil {
		return nil, err
	}
	if !bsql.ReadOnly(stmts) {
		return nil, fmt.Errorf("router: Query accepts only SELECT/EXPLAIN statements; route writes through Exec or ExecBatch")
	}
	return r.runReadStmts(ctx, stmts)
}

func (r *Router) runReadStmts(ctx context.Context, stmts []bsql.Statement) (*client.Result, error) {
	if len(stmts) == 0 {
		return nil, fmt.Errorf("router: empty script")
	}
	var last *client.Result
	for _, st := range stmts {
		res, err := r.runRead(ctx, st)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}
