package store

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/snapshot"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/wal"
)

// File names inside a durable store's directory.
const (
	SnapshotFileName = "snapshot.bdb"
	WALFileName      = "wal.bdb"
)

// ErrClosed is returned by mutating methods after Close.
var ErrClosed = errors.New("store: database is closed")

// ErrDegraded classifies the sticky read-only condition: after a WAL append
// or fsync failure the store refuses further mutations (acknowledging them
// would silently drop bytes unreachable to recovery) while reads keep being
// served from the intact in-memory state. errors.Is(err, ErrDegraded) holds
// for every mutation rejected in this state; the network server maps it to
// the wire protocol's degraded error code.
var ErrDegraded = errors.New("store: degraded (read-only after a WAL failure)")

// degradedError wraps the sticky WAL failure so mutation errors match
// ErrDegraded while keeping the long-standing message text.
type degradedError struct{ cause error }

func (e degradedError) Error() string {
	return "store: database is read-only after a WAL failure: " + e.cause.Error()
}

func (e degradedError) Is(target error) bool { return target == ErrDegraded }

func (e degradedError) Unwrap() error { return e.cause }

// readOnlyErrLocked renders the sticky failure as an ErrDegraded-matching
// error; callers hold mu and have checked st.walErr != nil.
func (st *Store) readOnlyErrLocked() error { return degradedError{cause: st.walErr} }

// Degraded reports whether the store is in the sticky read-only state.
func (st *Store) Degraded() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.walErr != nil
}

// wrapWALSink is the fault-injection seam: tests and the chaos harness
// replace it to wrap the WAL's file sink (e.g. with wal.LimitSink, which
// fails after N bytes, or a faults.Sink running a seeded error schedule).
// Production leaves it nil.
var wrapWALSink func(wal.Sink) wal.Sink

// SetWALSinkWrapper installs (or, with nil, removes) the WAL-sink wrapper
// applied by subsequent OpenAt calls. It exists for fault injection — crash
// and degraded-mode tests wrap the production file sink with failing ones —
// and must not be called concurrently with OpenAt.
func SetWALSinkWrapper(wrap func(wal.Sink) wal.Sink) { wrapWALSink = wrap }

// OpenAt opens (creating it if needed) a durable store rooted at directory
// dir. Recovery loads the latest snapshot, replays the WAL tail not yet
// covered by it, and truncates the WAL at the first torn record; afterwards
// every mutating operation is appended to the WAL — under the exclusive
// writer lock, before any table is touched — and synced before the mutation
// is acknowledged. A directory in an older format — a version-1/2 image, or
// a WAL holding a legacy record (see legacyOp) — is refused by name; only
// a torn WAL tail is cut first, as on every open.
func OpenAt(dir string, rels []Relation) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	st, err := recoverAt(dir, rels)
	if err != nil {
		unlockDir(lock)
		return nil, err
	}
	st.lockFile = lock
	return st, nil
}

// recoverAt is OpenAt's recovery under the directory lock.
func recoverAt(dir string, rels []Relation) (*Store, error) {
	st, err := Open(rels)
	if err != nil {
		return nil, err
	}
	st.snapPath = filepath.Join(dir, SnapshotFileName)

	// Recovery mutates through the regular update paths; suppress the
	// per-operation snapshot publication they would otherwise perform and
	// publish a single consistent view once replay completes.
	st.replaying = true

	var (
		haveSnap    bool
		snapEpoch   uint64
		snapApplied uint64
	)
	switch m, err := snapshot.ReadFile(st.snapPath); {
	case err == nil:
		if err := st.loadSnapshot(m); err != nil {
			return nil, err
		}
		haveSnap, snapEpoch, snapApplied = true, m.WalEpoch, m.WalApplied
	case os.IsNotExist(err):
		// Fresh directory (or one that never reached a checkpoint).
	default:
		return nil, err
	}

	// A recreated WAL must start above the snapshot's epoch (see
	// wal.OpenFile); without a snapshot, epoch 0.
	freshEpoch := uint64(0)
	if haveSnap {
		freshEpoch = snapEpoch + 1
	}
	rec, err := wal.OpenFile(filepath.Join(dir, WALFileName), freshEpoch, wrapWALSink)
	if err != nil {
		return nil, err
	}
	st.walCount = uint64(len(rec.Ops))

	if !haveSnap && len(rec.Ops) > 0 && rec.Ops[0].Kind != wal.KindSchema {
		rec.Close()
		return nil, fmt.Errorf("store: %s carries no schema record; refusing to replay", WALFileName)
	}

	// The snapshot already covers its recorded prefix of the WAL — but only
	// while the WAL still carries the epoch the snapshot saw. A completed
	// checkpoint resets the WAL under a fresh epoch, in which case every
	// record postdates the snapshot.
	skip := 0
	if haveSnap && rec.Epoch == snapEpoch {
		skip = int(min(snapApplied, uint64(len(rec.Ops))))
	}
	// Nothing is written to the directory until replay has accepted its
	// records: a refused open leaves the WAL as it found it, torn tail
	// included.
	if err := st.replay(rec.Ops, skip); err != nil {
		rec.Close()
		return nil, err
	}
	if st.wal, err = rec.Attach(); err != nil {
		rec.Close()
		return nil, err
	}
	// A fresh log (no snapshot, no records) is stamped with the schema it
	// is being created under; on reopen without a snapshot that record is
	// the only schema identity the directory has, and replaying under a
	// different schema must fail loudly — otherwise every Insert would be
	// discarded as a deterministic "unknown relation" no-op, silently
	// losing all committed beliefs.
	if len(rec.Ops) == 0 && !haveSnap {
		if err := st.wal.Append(wal.Schema(st.schemaDef())); err != nil {
			st.wal.Close()
			return nil, err
		}
		st.walCount = 1
	}
	st.durable = true
	st.replaying = false
	st.publishLocked() // no other goroutine holds st yet
	return st, nil
}

// replay applies a recovered WAL's records from index skip on through the
// regular update paths. It fails at the first legacy record (see legacyOp),
// the covered prefix included: that log can only come from a binary older
// than snapshot.UpgradeCommit.
func (st *Store) replay(ops []wal.Op, skip int) error {
	for k := 0; k < len(ops); k++ {
		op := ops[k]
		if legacyOp(op) {
			return fmt.Errorf("store: %s record %d (%s) is a legacy record this version does not replay; %s",
				WALFileName, k, op, snapshot.UpgradeHint)
		}
		switch {
		case op.Kind == wal.KindBatchBegin:
			// The marker groups the next Count records into one atomic
			// batch; replay it through the same all-or-nothing path the
			// live batch took, so a mid-batch conflict rolls back
			// identically and the marker's token re-enters the dedup table
			// (see ApplyReplicatedGroup). Recovery already truncated
			// incomplete trailing groups, so a short group here is a
			// format error.
			n := int(op.Count)
			if k+1+n > len(ops) {
				return fmt.Errorf("store: WAL batch declares %d records, %d remain", n, len(ops)-k-1)
			}
			if k >= skip {
				if err := st.ApplyReplicatedGroup(ops[k+1:k+1+n], op.Token); err != nil {
					return err
				}
			}
			k += n
		case k >= skip:
			if err := st.applyOp(op); err != nil {
				return err
			}
		}
	}
	return nil
}

// schemaDef renders the store's schema identity for the WAL's schema
// record.
func (st *Store) schemaDef() wal.SchemaDef {
	var def wal.SchemaDef
	for _, name := range st.relOrder {
		rel := wal.SchemaRel{Name: name}
		for _, c := range st.rels[name].def.Columns {
			rel.Cols = append(rel.Cols, wal.SchemaCol{Name: c.Name, Kind: uint8(c.Type)})
		}
		def.Rels = append(def.Rels, rel)
	}
	return def
}

// validateSchemaDef checks a WAL schema record against the schema the
// store was opened with.
func (st *Store) validateSchemaDef(def *wal.SchemaDef) error {
	if def == nil {
		return fmt.Errorf("store: WAL schema record has no definition")
	}
	if def.Lazy {
		return fmt.Errorf("store: the WAL's schema record says the directory was created with the lazy representation, which is no longer supported")
	}
	if len(def.Rels) != len(st.relOrder) {
		return fmt.Errorf("store: WAL schema has %d relations, schema declares %d", len(def.Rels), len(st.relOrder))
	}
	for i, name := range st.relOrder {
		want := st.rels[name].def
		got := def.Rels[i]
		if got.Name != want.Name || len(got.Cols) != len(want.Columns) {
			return fmt.Errorf("store: WAL schema relation %q does not match declared relation %q", got.Name, want.Name)
		}
		for j, c := range want.Columns {
			if got.Cols[j].Name != c.Name || got.Cols[j].Kind != uint8(c.Type) {
				return fmt.Errorf("store: WAL schema column %s.%s (%d) does not match declared column %s (%s)",
					got.Name, got.Cols[j].Name, got.Cols[j].Kind, c.Name, c.Type)
			}
		}
	}
	return nil
}

// Durable reports whether the store persists to disk.
func (st *Store) Durable() bool { return st.durable }

// WALSyncs reports how many fsyncs the current WAL handle has issued — the
// cost group commit amortizes; benchmarks report the delta per operation.
// Zero for in-memory stores.
func (st *Store) WALSyncs() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.wal == nil {
		return 0
	}
	return st.wal.Syncs()
}

// applyOp replays one WAL operation — not a batch marker, not a legacy
// record — through the regular update algorithms. Operation-level outcomes (conflicts, duplicate users, no-op deletes) are
// deliberately ignored: the log records attempted operations, and replaying
// them produces byte-for-byte the same decisions they produced originally —
// including the failures. Only structural problems abort recovery.
func (st *Store) applyOp(op wal.Op) error {
	switch op.Kind {
	case wal.KindAddUser:
		_, _ = st.AddUser(op.Name)
	case wal.KindRebuild:
		_ = st.Rebuild()
	case wal.KindVacuum:
		_, _ = st.Vacuum()
	case wal.KindSQL:
		st.replaySQL(op.SQL)
	case wal.KindSchema:
		return st.validateSchemaDef(op.Def)
	default:
		return fmt.Errorf("store: cannot replay unknown WAL operation %s", op.Kind)
	}
	return nil
}

// legacyOp reports whether op, read outside a BatchBegin group, is a record
// only logs written by earlier versions hold: a bare Insert, Delete or
// Replace, or a raw-SQL script that is not reads and index DDL. Recovery
// and replicas refuse them.
func legacyOp(op wal.Op) bool {
	switch op.Kind {
	case wal.KindInsert, wal.KindDelete, wal.KindReplace:
		return true
	case wal.KindSQL:
		stmts, err := sqlparser.ParseAll(op.SQL)
		return err == nil && refusedStmt(stmts) != ""
	}
	return false
}

// replaySQL re-runs one journaled raw-SQL script — reads and index DDL,
// as legacyOp checked — through SQL's writer half, in recovery or on a
// replica; like every replayed operation its outcome is ignored.
func (st *Store) replaySQL(text string) {
	stmts, err := sqlparser.ParseAll(text)
	if err != nil {
		return // it failed the same way when it was journaled
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	_, _ = st.sqlLocked(text, stmts)
}

// logOp appends one operation to the WAL and syncs it. Mutating methods
// call it under the exclusive writer lock after validating their inputs and
// before touching any table (write-ahead), so a crash at any later point
// replays the operation on recovery. In-memory stores (wal == nil) skip
// logging. After an append failure the store refuses further mutations:
// bytes after a torn record are unreachable to recovery, so acknowledging
// later operations would silently drop them.
func (st *Store) logOp(op wal.Op) error {
	if st.closed {
		return ErrClosed
	}
	if st.wal == nil {
		return nil
	}
	if st.walErr != nil {
		return st.readOnlyErrLocked()
	}
	if err := st.wal.Append(op); err != nil {
		// A too-large record is refused before any byte is written: the
		// log is still clean, so only genuine I/O failures are sticky.
		if !errors.Is(err, wal.ErrRecordTooLarge) {
			st.walErr = err
		}
		return err
	}
	st.walCount++
	return nil
}

// Checkpoint writes a snapshot of the belief database — users and explicit
// statements, not the representation derived from them — and truncates the
// WAL under a fresh epoch. Reopening loads the image through the commit
// path, so the reopened store equals this one after Rebuild: the same
// statements, users and worlds, without the unsupported states and
// unreferenced tuples deletes left behind. It holds the exclusive writer
// lock for the whole render + encode + fsync + rename, stalling readers
// for the duration — acceptable for an explicit, occasional operation;
// an incremental copy-under-read-lock scheme is future work if checkpoint
// latency ever matters. Crash-safety of the pair: the
// snapshot lands atomically (temp file + rename) and records the WAL
// (epoch, record count) it covers, so dying between the two steps merely
// means recovery skips the covered prefix; dying before the rename leaves
// the previous snapshot + full WAL.
func (st *Store) Checkpoint() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.durable {
		return fmt.Errorf("store: Checkpoint on a non-durable store (use OpenAt)")
	}
	if st.closed {
		return ErrClosed
	}
	if st.walErr != nil {
		return st.readOnlyErrLocked()
	}
	// The writer lock quiesces the live view, so rendering it here is one
	// consistent epoch by construction.
	m, err := st.walModelLocked()
	if err != nil {
		return err
	}
	if err := snapshot.WriteFile(st.snapPath, m); err != nil {
		return err
	}
	if err := st.wal.Reset(m.WalEpoch + 1); err != nil {
		// The snapshot is durable and covers the whole old-epoch WAL;
		// recovery handles the un-truncated log, but this handle is done.
		st.walErr = err
		return err
	}
	st.walCount = 0
	return nil
}

// walModelLocked renders the live view stamped with the WAL position it
// covers. Callers hold the writer lock.
func (st *Store) walModelLocked() (*snapshot.Model, error) {
	m, err := st.view.snapshotModel()
	if err != nil {
		return nil, err
	}
	m.WalEpoch = st.wal.Epoch()
	m.WalApplied = st.walCount
	return m, nil
}

// Close syncs and closes the WAL. Further mutations fail with ErrClosed;
// reads keep working against the in-memory state. Closing an in-memory
// store (or closing twice) is a no-op.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.durable || st.closed {
		return nil
	}
	st.closed = true
	err := st.wal.Close()
	unlockDir(st.lockFile)
	st.lockFile = nil
	return err
}

// snapshotModel renders one view epoch as a snapshot model: the users, the
// relation definitions, the explicit statements in canonical order and the
// index definitions. On a pinned view it needs no locking; on the live view
// callers hold the writer lock.
func (v *view) snapshotModel() (*snapshot.Model, error) {
	stmts, err := v.explicitStatements()
	if err != nil {
		return nil, err
	}
	m := &snapshot.Model{NextUID: v.nextUID, Statements: stmts}
	for uid, name := range v.usersByID {
		m.Users = append(m.Users, snapshot.User{UID: int64(uid), Name: name})
	}
	slices.SortFunc(m.Users, func(a, b snapshot.User) int { return cmp.Compare(a.UID, b.UID) })

	// Tables in schema order, then index names sorted per table. Recording
	// the built-ins too keeps the render stateless; loading matches them.
	type namedTable struct {
		name string
		t    *engine.Table
	}
	nts := []namedTable{{"Users", v.usersTable}, {"_d", v.d}, {"_e", v.e}, {"_s", v.s}}
	for _, name := range v.relOrder {
		ri := v.rels[name]
		rel := snapshot.Relation{Name: ri.def.Name}
		for _, c := range ri.def.Columns {
			rel.Columns = append(rel.Columns, snapshot.Column{Name: c.Name, Kind: c.Type})
		}
		m.Rels = append(m.Rels, rel)
		nts = append(nts, namedTable{name + "_star", ri.star}, namedTable{name + "_v", ri.v})
	}
	for _, nt := range nts {
		ixs := nt.t.Indexes()
		for _, n := range slices.Sorted(maps.Keys(ixs)) {
			ix := ixs[n]
			def := snapshot.IndexDef{Table: nt.name, Name: n, Ordered: ix.Ordered()}
			for _, c := range ix.Cols() {
				def.Cols = append(def.Cols, nt.t.Schema().Columns[c].Name)
			}
			m.Indexes = append(m.Indexes, def)
		}
	}
	return m, nil
}

// SnapshotModel renders the current published snapshot as a snapshot
// model; used by the benchmarks and format tests. Pinning one view for the
// whole render keeps it a single consistent epoch with no locking. The
// model holds the belief database, not the representation: loading it
// yields this store after Rebuild. It panics if the view holds a valuation
// naming no tuple, which only a corrupt representation can.
func (st *Store) SnapshotModel() *snapshot.Model {
	m, err := st.pin().snapshotModel()
	if err != nil {
		panic(err)
	}
	return m
}

// loadSnapshot populates a freshly opened (empty) store from a model: it
// checks the model's schema against the store's, restores the users under
// their uids, commits the statements through the commit path in the
// model's (canonical) order — unjournaled, since the WAL is not open yet,
// and published once when recovery completes — and then recreates the
// recorded indexes over the rows that exist. A statement the commit path
// refuses fails the load and is named: an image is never loaded in part.
func (st *Store) loadSnapshot(m *snapshot.Model) error {
	if len(m.Rels) != len(st.relOrder) {
		return fmt.Errorf("store: snapshot has %d relations, schema declares %d", len(m.Rels), len(st.relOrder))
	}
	for i, name := range st.relOrder {
		def := st.rels[name].def
		sd := m.Rels[i]
		if sd.Name != def.Name || len(sd.Columns) != len(def.Columns) {
			return fmt.Errorf("store: snapshot relation %q does not match schema relation %q", sd.Name, def.Name)
		}
		for j, c := range def.Columns {
			if sd.Columns[j].Name != c.Name || sd.Columns[j].Kind != c.Type {
				return fmt.Errorf("store: snapshot column %s.%s (%s) does not match schema column %s (%s)",
					sd.Name, sd.Columns[j].Name, sd.Columns[j].Kind, c.Name, c.Type)
			}
		}
	}

	for _, u := range m.Users {
		if err := st.registerUser(core.UserID(u.UID), u.Name); err != nil {
			return fmt.Errorf("store: loading snapshot user %d (%q): %w", u.UID, u.Name, err)
		}
	}
	st.nextUID = m.NextUID

	groups := make([][]BatchOp, len(m.Statements))
	for i, s := range m.Statements {
		groups[i] = []BatchOp{{Stmt: s}}
	}
	for i, out := range st.commitLocked(groups, nil) {
		if out.Err != nil {
			return fmt.Errorf("store: snapshot statement %d (%s) refused: %w", i, m.Statements[i], out.Err)
		}
	}

	// Recreate the recorded secondary indexes. Built-ins (and anything else
	// Open already made) are matched by name and verified; the rest —
	// user-created via journaled CREATE [ORDERED] INDEX — are built over
	// the rows loaded above, reproducing their kind.
	for _, d := range m.Indexes {
		t := st.cat.Table(d.Table)
		if t == nil {
			return fmt.Errorf("store: snapshot index %s on unknown table %s", d.Name, d.Table)
		}
		if ex, ok := t.Indexes()[d.Name]; ok {
			if err := matchIndexDef(t, ex, d); err != nil {
				return err
			}
			continue
		}
		var err error
		if d.Ordered {
			_, err = t.CreateOrderedIndex(d.Name, d.Cols)
		} else {
			_, err = t.CreateIndex(d.Name, d.Cols)
		}
		if err != nil {
			return fmt.Errorf("store: recreating snapshot index %s.%s: %w", d.Table, d.Name, err)
		}
	}
	return nil
}

// matchIndexDef verifies that an existing index has the definition the
// snapshot recorded for its name.
func matchIndexDef(t *engine.Table, ix *engine.Index, d snapshot.IndexDef) error {
	ok := ix.Ordered() == d.Ordered && len(ix.Cols()) == len(d.Cols)
	if ok {
		for i, c := range ix.Cols() {
			if t.Schema().Columns[c].Name != d.Cols[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		return fmt.Errorf("store: snapshot index %s.%s does not match the existing index of that name",
			d.Table, d.Name)
	}
	return nil
}
