// Package server is the network service layer of the belief database: a
// TCP server speaking the internal/wire protocol over an embedded
// beliefdb.DB, one goroutine per connection, with every client's batch
// mutations funneled through the database's group-commit coalescer
// (DB.SubmitBatch) so concurrent clients share WAL fsyncs instead of
// paying one each.
//
// The connection lifecycle — listener, handshake, request loop, result
// streaming, panic isolation, graceful drain — is wire.Endpoint's (see
// internal/wire/serve.go); a Server is the wire.Handler that answers the
// requests from its database. Shutdown drains the endpoint; only after it
// returns should the caller close the DB. See the Network service section
// of DESIGN.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb"
	"beliefdb/internal/shard"
	"beliefdb/internal/wire"
)

// RowChunkSize is wire.RowChunkSize, the row bound of one RowChunk frame.
const RowChunkSize = wire.RowChunkSize

// DefaultCommitWindow is how long the database's group-commit rounds
// linger for more batches while a server fronts it (see
// beliefdb.DB.SetGroupCommitWindow). Without a window, batches coalesce
// only when they happen to overlap a round already on disk — reliable
// under real fsync latency, a scheduling accident on fast storage. A
// fraction of a millisecond is noise next to a network round trip and
// guarantees that concurrent clients share fsyncs.
const DefaultCommitWindow = 200 * time.Microsecond

// A Server serves the wire protocol over one belief database. Create with
// New, start with Serve, stop with Shutdown.
type Server struct {
	// db is swapped atomically: a replica resyncing from a snapshot closes
	// the old handle (which keeps serving reads) and publishes a freshly
	// recovered one, while request handlers load whichever is current. A
	// primary never swaps.
	db   atomic.Pointer[beliefdb.DB]
	opts wire.Options
	ep   *wire.Endpoint

	// follower is non-nil in replica mode: the server refuses mutations,
	// answers only read queries (against the watermark its follower has
	// applied), and keeps db in sync by replaying the primary's WAL stream.
	follower *Follower

	// Shard identity (WithShard): when shard.Count > 0 the server is one
	// shard of a hash-partitioned cluster. It announces the triple in its
	// handshake, and refuses batch writes whose row keys hash to another
	// shard — and Exec-path mutations entirely, since those bypass the
	// per-key owner check (writes reach shards through beliefrouter's
	// ExecBatch routing).
	shard shard.Identity

	degradedOnce sync.Once // one structured log line per degraded transition
}

// Option configures a Server.
type Option func(*Server)

// WithEndpoint sets the options the server shares with every front end of
// the protocol (identity, frame bound, request timeout, connection bound,
// logger), replacing all of them. The request timeout also bounds batch
// commits, abandoned from the waiting side when it expires (an accepted
// batch still commits — see DB.SubmitBatch); the logger also receives the
// degraded-mode transition.
func WithEndpoint(o wire.Options) Option { return func(s *Server) { s.opts = o } }

// WithShard declares the server to be shard id of a cluster hash-
// partitioned into count shards with the given partition seed. The triple
// is announced in the wire handshake; batch writes are checked against it
// and refused with the wrong-shard code when a row key belongs elsewhere.
// All servers of one cluster must share count and seed; a replica of a
// shard carries its primary's identity.
func WithShard(id, count int, seed uint64) Option {
	return func(s *Server) { s.shard = shard.Identity{ID: id, Count: count, Seed: seed} }
}

// New returns a server over db and arms db's group-commit window so
// concurrent clients' batches share WAL fsyncs.
func New(db *beliefdb.DB, opts ...Option) *Server {
	s := &Server{}
	s.db.Store(db)
	for _, o := range opts {
		o(s)
	}
	if s.opts.Info == "" {
		s.opts.Info = "beliefdb"
	}
	s.ep = wire.NewEndpoint("server", s, s.opts)
	db.SetGroupCommitWindow(DefaultCommitWindow)
	return s
}

// DB returns the server's current database handle. On a replica the handle
// changes across snapshot resyncs; callers must not cache it across
// requests.
func (s *Server) DB() *beliefdb.DB { return s.db.Load() }

// Replica reports whether the server runs in read-only replica mode.
func (s *Server) Replica() bool { return s.follower != nil }

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener failure.
func (s *Server) Serve(ln net.Listener) error { return s.ep.Serve(ln) }

// Shutdown stops the server gracefully (see wire.Endpoint.Shutdown); if
// ctx expires first the remaining connections are force-closed and ctx's
// error returned. The database is not touched either way — closing it is
// the caller's next step, after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.follower != nil {
		// Stop replaying before draining handlers, so no apply races the
		// caller's subsequent DB().Close().
		s.follower.stopFollowing()
	}
	return s.ep.Shutdown(ctx)
}

// Announce adds the shard identity to the handshake (wire.Handler).
func (s *Server) Announce(hello *wire.Msg) {
	if s.shard.Count > 0 {
		hello.ShardID = int64(s.shard.ID)
		hello.ShardCount = uint64(s.shard.Count)
		hello.ShardSeed = s.shard.Seed
	}
}

// classify maps a request-level failure to its stable wire error code, so
// clients dispatch on the code (errors.Is against their sentinels) instead
// of matching server error text.
func classify(err error) wire.ErrCode {
	switch {
	case errors.Is(err, beliefdb.ErrDegraded):
		return wire.CodeDegraded
	case errors.Is(err, beliefdb.ErrClosed):
		return wire.CodeReadOnly
	case errors.Is(err, beliefdb.ErrParse):
		return wire.CodeParse
	case errors.Is(err, beliefdb.ErrStaleRead):
		return wire.CodeStaleRead
	default:
		return wire.CodeInternal
	}
}

// errFrame renders a request-level failure as a coded Error frame, logging
// the degraded-mode transition the first time it is observed.
func (s *Server) errFrame(err error) wire.Msg {
	code := classify(err)
	if code == wire.CodeDegraded {
		s.noteDegraded(err)
	}
	return wire.ErrorMsg(code, err.Error())
}

// noteDegraded emits one structured one-line event when the database first
// surfaces its sticky read-only state — the signal operators alert on.
func (s *Server) noteDegraded(cause error) {
	s.degradedOnce.Do(func() {
		if s.opts.Logf == nil {
			return
		}
		line, _ := json.Marshal(map[string]string{
			"event": "degraded",
			"mode":  "read-only",
			"cause": cause.Error(),
		})
		s.opts.Logf("%s", line)
	})
}

// ServeRequest answers one request from the database (wire.Handler):
// request-level failures become a coded Error frame and return nil.
func (s *Server) ServeRequest(w *wire.Conn, req wire.Msg) error {
	db := s.DB()
	switch req.Kind {
	case wire.KindQuery:
		if s.follower != nil {
			if err := s.replicaReadCheck(req); err != nil {
				return w.Write(s.errFrame(err))
			}
			// The check may have raced a resync swap; serve from whichever
			// handle is current (the superseded one still answers reads, so
			// either is consistent — the swapped-in one is just fresher).
			db = s.DB()
		}
		res, err := db.ExecScript(req.Text)
		if err != nil {
			return w.Write(s.errFrame(err))
		}
		return w.WriteResult(res.Columns, res.Rows, uint64(res.Affected), 0, 0)

	case wire.KindExec:
		if s.follower != nil {
			// A pure-SELECT script is a read wearing Exec clothing (the
			// shell's remote path sends everything as Exec); serve it like
			// a query. Anything mutating is refused.
			if err := s.replicaReadCheck(req); err != nil {
				return w.Write(s.errFrame(err))
			}
			db = s.DB() // a resync may have swapped the handle
			res, err := db.ExecScript(req.Text)
			if err != nil {
				return w.Write(s.errFrame(err))
			}
			return w.WriteResult(res.Columns, res.Rows, uint64(res.Affected), 0, 0)
		}
		if s.shard.Count > 0 {
			// Exec-path DML bypasses the per-key owner check, so a sharded
			// server only runs read-only Exec scripts; writes go through
			// the router's owner-checked ExecBatch path.
			readOnly, err := beliefdb.ReadOnlyScript(req.Text)
			if err != nil {
				return w.Write(s.errFrame(err))
			}
			if !readOnly {
				return w.Write(wire.ErrorMsg(wire.CodeWrongShard,
					"server: a sharded server accepts writes only as routed batches (ExecBatch via beliefrouter)"))
			}
		}
		res, err := db.ExecScript(req.Text)
		if err != nil {
			return w.Write(s.errFrame(err))
		}
		epoch, pos := position(db)
		return w.WriteResult(res.Columns, res.Rows, uint64(res.Affected), epoch, pos)

	case wire.KindExecBatch:
		if s.follower != nil {
			return w.Write(s.errFrame(errReplicaWrite))
		}
		// Compile outside any lock, then commit through the coalescer:
		// batches from concurrent connections share one WAL fsync. The
		// client's idempotency token rides along, so a retried batch
		// (dropped ack, reconnect) applies exactly once.
		b, err := db.ParseBatch(req.Text)
		if err != nil {
			return w.Write(s.errFrame(err))
		}
		if s.shard.Count > 0 {
			if err := b.CheckShard(s.shard.Seed, s.shard.Count, s.shard.ID); err != nil {
				return w.Write(wire.ErrorMsg(wire.CodeWrongShard, err.Error()))
			}
		}
		b.SetToken(req.Token)
		ctx := context.Background()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		res, err := db.SubmitBatch(ctx, b)
		if err != nil {
			return w.Write(s.errFrame(err))
		}
		epoch, pos := position(db)
		return w.Write(wire.Msg{
			Kind:    wire.KindBatchDone,
			Applied: uint64(res.Applied),
			Changed: uint64(res.Changed),
			Epoch:   epoch,
			Pos:     pos,
		})

	case wire.KindAddUser:
		if s.follower != nil {
			return w.Write(s.errFrame(errReplicaWrite))
		}
		uid, err := db.AddUser(req.Text)
		if err != nil {
			return w.Write(s.errFrame(err))
		}
		epoch, pos := position(db)
		return w.Write(wire.Msg{Kind: wire.KindUserAdded, UID: int64(uid), Epoch: epoch, Pos: pos})

	case wire.KindCheckpoint:
		if s.follower != nil {
			return w.Write(s.errFrame(errReplicaWrite))
		}
		if err := db.Checkpoint(); err != nil {
			return w.Write(s.errFrame(err))
		}
		epoch, pos := position(db)
		return w.Write(wire.Msg{Kind: wire.KindOK, Epoch: epoch, Pos: pos})

	case wire.KindReplicaStatus:
		if s.follower != nil {
			epoch, pos := s.follower.Cursor()
			connected := uint64(0)
			if s.follower.Connected() {
				connected = 1
			}
			return w.Write(wire.Msg{Kind: wire.KindStatus, Info: "replica", Epoch: epoch, Pos: pos, Affected: connected})
		}
		epoch, pos := position(db)
		return w.Write(wire.Msg{Kind: wire.KindStatus, Info: "primary", Epoch: epoch, Pos: pos, Affected: 1})

	case wire.KindPing:
		return w.Write(wire.Msg{Kind: wire.KindPong})

	case wire.KindFollowWAL:
		// A follow request dedicates the connection to streaming WAL
		// records until the peer goes away or the server shuts down; there
		// is no further request to read.
		s.serveFollow(w, req)
		return errFollowEnded

	default:
		// An unknown or out-of-place opcode (a response kind, a second
		// Hello) means the peer lost the plot; answer and drop the
		// connection by reporting a write error upward.
		w.Write(wire.Errorf("server: unexpected %s request", req.Kind))
		return fmt.Errorf("server: unexpected %s request", req.Kind)
	}
}

// position reports the database's committed WAL position — the watermark a
// write acknowledgement carries so the client's later reads can insist a
// replica has caught up to it. Any position at or past the write's own is a
// correct (merely conservative) watermark, so reading it after the commit
// is sound. In-memory databases have no position; their acks carry zeros.
func position(db *beliefdb.DB) (epoch, pos uint64) {
	if !db.Durable() {
		return 0, 0
	}
	epoch, pos, err := db.Store().WALStatus()
	if err != nil {
		return 0, 0
	}
	return epoch, pos
}

// errReplicaWrite classifies every mutation attempted on a replica: the
// wrapped ErrClosed maps it to the stable read-only wire code.
var errReplicaWrite = fmt.Errorf("server: replica is read-only; write to the primary: %w", beliefdb.ErrClosed)

// replicaReadCheck vets a Query against the replica contract: the script
// must be pure SELECTs (DML applied outside the replication stream would
// silently fork the replica from its primary), and when the request carries
// a read-your-writes watermark the follower must have applied at least that
// far — otherwise the refusal carries the stale-read code and the client
// falls back to the primary.
func (s *Server) replicaReadCheck(req wire.Msg) error {
	readOnly, err := beliefdb.ReadOnlyScript(req.Text)
	if err != nil {
		return err
	}
	if !readOnly {
		return errReplicaWrite
	}
	if req.Epoch != 0 || req.Pos != 0 {
		epoch, pos := s.follower.Cursor()
		if epoch < req.Epoch || (epoch == req.Epoch && pos < req.Pos) {
			return fmt.Errorf("server: replica applied (%d, %d), watermark (%d, %d): %w",
				epoch, pos, req.Epoch, req.Pos, beliefdb.ErrStaleRead)
		}
	}
	return nil
}
