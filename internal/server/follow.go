package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb"
	"beliefdb/internal/shard"
	"beliefdb/internal/snapshot"
	"beliefdb/internal/store"
	"beliefdb/internal/wal"
	"beliefdb/internal/wire"
)

// WAL shipping: a primary streams its committed WAL records to followers,
// which replay them through the regular update algorithms into their own
// durable store and serve read-only queries.
//
// The stream protocol over one dedicated connection:
//
//	follower                         primary
//	  FollowWAL(epoch, pos)  ──────►
//	                         ◄──────  SnapBegin/SnapChunk*/SnapEnd   (only when
//	                                  the cursor is unserveable from the live WAL)
//	                         ◄──────  WALRecs(epoch, pos, recs)…     (forever;
//	                                  empty recs are liveness heartbeats)
//
// The cursor is a (WAL epoch, record index) pair on the *primary's* WAL.
// It is unserveable when a checkpoint has rotated the primary's WAL past
// the follower's epoch — the records between are gone, compacted into the
// snapshot — so the primary ships a fresh snapshot stamped with the
// position it covers and resumes streaming from there. The follower
// persists its cursor (a sidecar file next to its store) only after
// applying, making delivery at-least-once; replay is idempotent — batch
// groups carry their exactly-once tokens into the same dedup table crash
// recovery uses, and the single-record operations are natural no-ops on
// re-application — so at-least-once delivery yields exactly-once effects.

// followPollInterval is how long the primary's follow handler sleeps when
// the follower is fully caught up.
const followPollInterval = time.Millisecond

// followHeartbeat is how often an idle follow stream emits an empty
// WALRecs frame, proving liveness in both directions: the primary notices
// a dead peer by the failed write, the follower by the missing frames.
const followHeartbeat = 100 * time.Millisecond

// followStall is how long a follower tolerates total silence before it
// declares the connection dead and redials. Several missed heartbeats, not
// one: a slow snapshot encode on the primary must not look like a stall.
const followStall = 10 * time.Second

// cursorFileName is the follower's replication-cursor sidecar, stored next
// to snapshot.bdb and wal.bdb in the replica's directory.
const cursorFileName = "replica.cursor"

// serveFollow streams WAL records to one follower until the peer goes away
// or the server shuts down. It runs on the connection's handler goroutine;
// the connection carries nothing else afterwards: the handler returns
// errFollowEnded to the request loop, which flushes what is buffered (a
// refusal written here) and closes it.
func (s *Server) serveFollow(w *wire.Conn, req wire.Msg) {
	if s.follower != nil {
		w.Write(wire.ErrorMsg(wire.CodeReadOnly, "server: cannot follow a replica; follow the primary"))
		return
	}
	db := s.DB()
	if !db.Durable() {
		w.Write(wire.ErrorMsg(wire.CodeInternal, "server: cannot follow an in-memory database"))
		return
	}
	st := db.Store()
	tail := wal.OpenTail(st.WALPath())
	defer tail.Close()

	// Leave framing headroom: the payload budget bounds record bytes per
	// WALRecs frame, the rest covers per-record prefixes and the envelope.
	budget := w.MaxFrame() - w.MaxFrame()/4
	cursorE, cursorP := req.Epoch, req.Pos
	idle := time.Duration(0)
	for {
		select {
		case <-s.ep.Done():
			return
		default:
		}
		epoch, committed, err := st.WALStatus()
		if err != nil {
			w.Write(s.errFrame(err))
			return
		}
		if cursorE != epoch || cursorP > committed {
			// The cursor predates a checkpoint rotation (or is from a
			// different life of this directory): resync from a snapshot.
			m, err := st.ReplicationSnapshot()
			if err != nil {
				w.Write(s.errFrame(err))
				return
			}
			if !s.sendSnapshot(w, m) {
				return
			}
			cursorE, cursorP = m.WalEpoch, m.WalApplied
			continue
		}
		if cursorP == committed {
			if idle >= followHeartbeat {
				idle = 0
				if w.Write(wire.Msg{Kind: wire.KindWALRecs, Epoch: cursorE, Pos: cursorP}) != nil || w.Flush() != nil {
					return
				}
			}
			if !s.sleepFollow(followPollInterval) {
				return
			}
			idle += followPollInterval
			continue
		}
		idle = 0
		recs, rotated, err := tail.Read(cursorE, cursorP, committed, budget)
		if err != nil {
			w.Write(s.errFrame(err))
			return
		}
		if rotated {
			continue // the next status read sees the new epoch and resyncs
		}
		// A checkpoint may have truncated the file between the status read
		// and the preads; a record that passed its CRC could still be
		// new-epoch bytes at a coinciding offset. An unchanged epoch after
		// the read proves every byte read belonged to cursorE.
		if e, _, err := st.WALStatus(); err != nil || e != cursorE {
			if err != nil {
				w.Write(s.errFrame(err))
				return
			}
			continue
		}
		if len(recs) == 0 {
			// Committed count visible before the bytes — transient; poll.
			if !s.sleepFollow(followPollInterval) {
				return
			}
			continue
		}
		if w.Write(wire.Msg{Kind: wire.KindWALRecs, Epoch: cursorE, Pos: cursorP, Recs: recs}) != nil || w.Flush() != nil {
			return
		}
		cursorP += uint64(len(recs))
	}
}

// sendSnapshot streams one snapshot model (SnapBegin, chunks, SnapEnd),
// reporting whether the connection survived.
func (s *Server) sendSnapshot(w *wire.Conn, m *snapshot.Model) bool {
	data := m.Encode()
	if w.Write(wire.Msg{Kind: wire.KindSnapBegin, Epoch: m.WalEpoch, Pos: m.WalApplied, Affected: uint64(len(data))}) != nil {
		return false
	}
	chunk := w.MaxFrame() - w.MaxFrame()/4
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if w.Write(wire.Msg{Kind: wire.KindSnapChunk, Data: data[off:end]}) != nil {
			return false
		}
	}
	return w.Write(wire.Msg{Kind: wire.KindSnapEnd}) == nil && w.Flush() == nil
}

// sleepFollow sleeps d unless the server is shutting down; it reports
// whether the follow loop should continue.
func (s *Server) sleepFollow(d time.Duration) bool {
	select {
	case <-s.ep.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// errFollowEnded is how a finished follow stream ends its connection.
var errFollowEnded = errors.New("server: follow stream ended")

// A Follower keeps a replica server's database caught up with its primary:
// it dials the primary, follows the WAL stream from its persisted cursor,
// replays records through the store's regular update paths (journaling them
// into the replica's own WAL, so the replica restarts from its own
// directory), and — when the primary has checkpointed past the cursor —
// resyncs by atomically re-seeding the directory from a streamed snapshot
// and swapping in a freshly recovered handle while the superseded one keeps
// serving reads.
type Follower struct {
	srv     *Server
	primary string
	dir     string
	schema  beliefdb.Schema

	mu    sync.Mutex
	epoch uint64 // primary WAL epoch the replica has applied through
	pos   uint64 // primary records applied under epoch

	connected atomic.Bool
	resyncs   atomic.Uint64

	// Batch-group reassembly across stream frames: a group's marker and
	// members are applied as one atomic batch, so members buffered here
	// advance the stream position but not the applied cursor until the
	// group completes.
	pending     []wal.Op
	pendingTok  string
	pendingNeed int
	pendingRecs uint64
	streamPos   uint64 // next record index expected off the stream

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReplica opens (or reopens) a read-only replica of the beliefserver at
// primaryAddr, rooted at directory dir with the primary's schema, and
// returns a server that keeps itself caught up: start it with Serve like
// any other. The replica answers Query (pure SELECTs only, against its
// replicated state, honoring read-your-writes watermarks) and
// ReplicaStatus; every mutation is refused with the read-only code.
// Shutdown stops the following first; closing the current DB() afterwards
// is the caller's step, as for a primary.
func NewReplica(primaryAddr, dir string, schema beliefdb.Schema, opts ...Option) (*Server, error) {
	db, err := beliefdb.OpenAt(dir, schema)
	if err != nil {
		return nil, err
	}
	s := New(db, opts...)
	f := &Follower{
		srv:     s,
		primary: primaryAddr,
		dir:     dir,
		schema:  schema,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := f.loadCursor(); err != nil {
		db.Close()
		return nil, err
	}
	f.streamPos = f.pos
	s.follower = f
	go f.run()
	return s, nil
}

// Follower returns the replica-side follower, nil on a primary.
func (s *Server) Follower() *Follower { return s.follower }

// Cursor reports the primary WAL position the replica has applied through.
func (f *Follower) Cursor() (epoch, pos uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.pos
}

// Connected reports whether the follow stream is currently live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Resyncs reports how many snapshot resyncs the follower has performed
// (bootstrap excluded when the replica started from its own directory).
func (f *Follower) Resyncs() uint64 { return f.resyncs.Load() }

func (f *Follower) stopFollowing() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := 50 * time.Millisecond
	lastLogged := ""
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		start := time.Now()
		err := f.followOnce()
		f.connected.Store(false)
		if err == nil {
			return // clean stop
		}
		// One line per distinct failure, not per redial: a refused handshake
		// (wrong shard, wrong protocol) repeats until the operator acts.
		if logf := f.srv.opts.Logf; logf != nil && err.Error() != lastLogged {
			lastLogged = err.Error()
			logf("server: follow session with %s ended: %v", f.primary, err)
		}
		if time.Since(start) > time.Second {
			backoff = 50 * time.Millisecond // the last session was healthy
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, time.Second)
	}
}

// followOnce runs one follow session: dial, handshake, stream, apply. It
// returns nil only for a clean stop; any error means redial.
func (f *Follower) followOnce() error {
	conn, err := net.DialTimeout("tcp", f.primary, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	// A stop closes the connection from outside, failing the pending read.
	unblock := make(chan struct{})
	defer close(unblock)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-unblock:
		}
	}()

	bw := bufio.NewWriter(conn)
	w := wire.NewWriter(bw, f.srv.opts.MaxFrame)
	r := wire.NewReader(bufio.NewReader(conn), f.srv.opts.MaxFrame)
	// The handshake gets its own deadline: a peer that accepts but never
	// answers (a blackholed proxy, a wedged primary) must not pin the
	// follower here forever.
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello, err := wire.ClientHandshake(r, w, bw.Flush)
	if err != nil {
		return fmt.Errorf("server: follow handshake: %w", err)
	}
	// A replica carries its primary's shard identity: following another
	// shard's primary would serve that shard's rows under this one's name.
	announced := shard.Identity{ID: int(hello.ShardID), Count: int(hello.ShardCount), Seed: hello.ShardSeed}
	if err := f.srv.shard.Check(f.primary, announced); err != nil {
		return fmt.Errorf("server: follow handshake: %w", err)
	}
	f.mu.Lock()
	epoch, pos := f.epoch, f.pos
	f.mu.Unlock()
	f.resetPending()
	f.streamPos = pos
	if err := w.Write(wire.FollowWAL(epoch, pos)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})

	lastFrame := time.Now()
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		msg, err := r.Read()
		if err != nil {
			var netErr net.Error
			if errors.As(err, &netErr) && netErr.Timeout() {
				if time.Since(lastFrame) > followStall {
					return fmt.Errorf("server: follow stream stalled for %s", followStall)
				}
				continue
			}
			select {
			case <-f.stop:
				return nil
			default:
			}
			return err
		}
		lastFrame = time.Now()
		switch msg.Kind {
		case wire.KindWALRecs:
			if err := f.handleRecs(msg); err != nil {
				return err
			}
			f.connected.Store(true)
		case wire.KindSnapBegin:
			if err := f.handleSnapshot(r, msg); err != nil {
				return err
			}
			f.connected.Store(true)
		case wire.KindError:
			return fmt.Errorf("server: primary refused follow: %s", msg.Text)
		default:
			return fmt.Errorf("server: unexpected %s on follow stream", msg.Kind)
		}
	}
}

// handleRecs applies one WALRecs frame. Frames overlapping records already
// consumed (a primary restarting the stream behind our position) skip the
// known prefix; a frame starting past the expected position is a gap and
// forces a reconnect, which restates the cursor.
func (f *Follower) handleRecs(msg wire.Msg) error {
	f.mu.Lock()
	epoch := f.epoch
	f.mu.Unlock()
	if msg.Epoch != epoch {
		return fmt.Errorf("server: follow stream at epoch %d, replica at %d", msg.Epoch, epoch)
	}
	if msg.Pos > f.streamPos {
		return fmt.Errorf("server: follow stream jumped to record %d, expected %d", msg.Pos, f.streamPos)
	}
	skip := f.streamPos - msg.Pos
	if skip >= uint64(len(msg.Recs)) {
		return nil // heartbeat or fully known frame
	}
	for _, rec := range msg.Recs[skip:] {
		if err := f.applyRecord(rec); err != nil {
			return err
		}
		f.streamPos++
	}
	return f.saveCursor()
}

// applyRecord feeds one WAL record payload to the applier, assembling
// batch groups across frame boundaries. The applied cursor advances only
// on whole units — a single record, or a complete marker+members group —
// so a crash mid-group re-requests the group from its marker.
func (f *Follower) applyRecord(payload []byte) error {
	op, err := wal.DecodeOp(payload)
	if err != nil {
		return err
	}
	st := f.srv.DB().Store()
	if f.pendingNeed > 0 {
		f.pending = append(f.pending, op)
		f.pendingRecs++
		if len(f.pending) == f.pendingNeed {
			if err := st.ApplyReplicatedGroup(f.pending, f.pendingTok); err != nil {
				return err
			}
			f.advance(f.pendingRecs)
			f.resetPending()
		}
		return nil
	}
	switch {
	case op.Kind == wal.KindBatchBegin && op.Count > 0:
		f.pendingNeed = int(op.Count)
		f.pendingTok = op.Token
		f.pendingRecs = 1
		f.pending = f.pending[:0]
	case op.Kind == wal.KindBatchBegin: // empty group: nothing to apply
		f.advance(1)
	default:
		if err := st.ApplyReplicated(op); err != nil {
			return err
		}
		f.advance(1)
	}
	return nil
}

func (f *Follower) advance(n uint64) {
	f.mu.Lock()
	f.pos += n
	f.mu.Unlock()
}

func (f *Follower) resetPending() {
	f.pending = f.pending[:0]
	f.pendingTok = ""
	f.pendingNeed = 0
	f.pendingRecs = 0
}

// handleSnapshot consumes one streamed snapshot and re-seeds the replica
// from it: the current handle is closed (it keeps serving reads), the
// directory is rewritten — WAL first removed so the snapshot's epoch can
// never meet a stale log — and a freshly recovered handle is swapped in.
func (f *Follower) handleSnapshot(r *wire.Reader, begin wire.Msg) error {
	// The declared size is the peer's word: chunks are appended as they
	// arrive, and the overrun check below bounds the buffer by it.
	var data []byte
	for {
		msg, err := r.Read()
		if err != nil {
			return err
		}
		switch msg.Kind {
		case wire.KindSnapChunk:
			data = append(data, msg.Data...)
			if uint64(len(data)) > begin.Affected {
				return fmt.Errorf("server: snapshot stream overran its %d declared bytes", begin.Affected)
			}
			continue
		case wire.KindSnapEnd:
		default:
			return fmt.Errorf("server: unexpected %s inside snapshot stream", msg.Kind)
		}
		break
	}
	if uint64(len(data)) != begin.Affected {
		return fmt.Errorf("server: snapshot stream ended at %d of %d declared bytes", len(data), begin.Affected)
	}
	m, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	if m.WalEpoch != begin.Epoch || m.WalApplied != begin.Pos {
		return fmt.Errorf("server: snapshot covers (%d, %d) but was announced as (%d, %d)",
			m.WalEpoch, m.WalApplied, begin.Epoch, begin.Pos)
	}

	old := f.srv.DB()
	if err := old.Close(); err != nil {
		return err
	}
	// Remove the stale WAL before the snapshot lands: recovery must never
	// pair the new snapshot with old-epoch records, and a crash between the
	// two steps just leaves a state whose cursor forces another resync.
	if err := os.Remove(filepath.Join(f.dir, store.WALFileName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	if err := snapshot.WriteFile(filepath.Join(f.dir, store.SnapshotFileName), m); err != nil {
		return err
	}
	// Swap the loaded handle in (and count the resync) before the cursor
	// moves: a cursor at the image's position must never front a handle
	// that does not hold it. A crash before the cursor is saved leaves the
	// old cursor, whose epoch forces another resync.
	db, err := beliefdb.OpenAt(f.dir, f.schema)
	if err != nil {
		return err
	}
	f.srv.db.Store(db)
	f.resyncs.Add(1)
	f.mu.Lock()
	f.epoch, f.pos = m.WalEpoch, m.WalApplied
	f.mu.Unlock()
	f.streamPos = m.WalApplied
	f.resetPending()
	return f.saveCursor()
}

// loadCursor reads the persisted replication cursor; a missing file means
// a fresh replica at (0, 0).
func (f *Follower) loadCursor() error {
	data, err := os.ReadFile(filepath.Join(f.dir, cursorFileName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var epoch, pos uint64
	if _, err := fmt.Sscanf(string(data), "v1 %d %d", &epoch, &pos); err != nil {
		return fmt.Errorf("server: corrupt replication cursor %q: %w", string(data), err)
	}
	f.epoch, f.pos = epoch, pos
	return nil
}

// saveCursor persists the applied cursor atomically (temp file + rename).
// It is written after applying, so a crash between apply and save merely
// re-delivers records the idempotent applier already absorbed.
func (f *Follower) saveCursor() error {
	f.mu.Lock()
	epoch, pos := f.epoch, f.pos
	f.mu.Unlock()
	path := filepath.Join(f.dir, cursorFileName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, fmt.Appendf(nil, "v1 %d %d\n", epoch, pos), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(f.dir)
}

// syncDir fsyncs a directory, making a rename within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
