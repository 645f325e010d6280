package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/snapshot"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
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
// is acknowledged.
func OpenAt(dir string, rels []Relation) (st *Store, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			unlockDir(lock)
		}
	}()
	st, err = Open(rels)
	if err != nil {
		return nil, err
	}
	st.lockFile = lock
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

	// A fresh log (no snapshot, no records) is stamped with the schema it
	// is being created under; on reopen without a snapshot that record is
	// the only schema identity the directory has, and replaying under a
	// different schema must fail loudly — otherwise every Insert would be
	// discarded as a deterministic "unknown relation" no-op, silently
	// losing all committed beliefs.
	switch {
	case len(rec.Ops) == 0 && !haveSnap:
		if err := rec.Log.Append(wal.Schema(st.schemaDef())); err != nil {
			rec.Log.Close()
			return nil, err
		}
		st.walCount = 1
	case !haveSnap:
		if rec.Ops[0].Kind != wal.KindSchema {
			rec.Log.Close()
			return nil, fmt.Errorf("store: %s carries no schema record; refusing to replay", WALFileName)
		}
	}

	// The snapshot already covers its recorded prefix of the WAL — but only
	// while the WAL still carries the epoch the snapshot saw. A completed
	// checkpoint resets the WAL under a fresh epoch, in which case every
	// record postdates the snapshot.
	skip := 0
	if haveSnap && rec.Epoch == snapEpoch {
		skip = int(min(snapApplied, uint64(len(rec.Ops))))
	}
	for k := skip; k < len(rec.Ops); k++ {
		op := rec.Ops[k]
		switch op.Kind {
		case wal.KindSchema:
			if err := st.validateSchemaDef(op.Def); err != nil {
				rec.Log.Close()
				return nil, err
			}
		case wal.KindBatchBegin:
			// The marker groups the next Count records into one atomic
			// batch; replay it through the same all-or-nothing path the
			// live batch took, so a mid-batch conflict rolls back
			// identically and the marker's token re-enters the dedup table
			// (see ApplyReplicatedGroup). Recovery already truncated
			// incomplete trailing groups, so a short group here is a
			// format error.
			n := int(op.Count)
			if k+1+n > len(rec.Ops) {
				rec.Log.Close()
				return nil, fmt.Errorf("store: WAL batch declares %d records, %d remain", n, len(rec.Ops)-k-1)
			}
			if err := st.ApplyReplicatedGroup(rec.Ops[k+1:k+1+n], op.Token); err != nil {
				rec.Log.Close()
				return nil, err
			}
			k += n
		default:
			if err := st.applyOp(op); err != nil {
				rec.Log.Close()
				return nil, err
			}
		}
	}
	st.wal = rec.Log
	st.durable = true
	st.replaying = false
	// A log written before raw-SQL transactions were refused can end inside
	// one (see replaySQL). It was never committed, so it is rolled back. The
	// log still holds its BEGIN, and every write appended after it would
	// replay inside the span and be lost with it, so a checkpoint makes the
	// rollback durable: the recovered state becomes the snapshot and the
	// WAL is reset.
	if txn := st.cat.ActiveTxn(); txn != nil {
		txn.Rollback()
		if err := st.Checkpoint(); err != nil {
			rec.Log.Close()
			return nil, err
		}
	}
	st.publishLocked() // no other goroutine holds st yet
	return st, nil
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

// applyOp replays one WAL operation through the regular update algorithms.
// Operation-level outcomes (conflicts, duplicate users, no-op deletes) are
// deliberately ignored: the log records attempted operations, and replaying
// them produces byte-for-byte the same decisions they produced originally —
// including the failures. Only structural problems abort recovery.
func (st *Store) applyOp(op wal.Op) error {
	switch op.Kind {
	case wal.KindAddUser:
		_, _ = st.AddUser(op.Name)
	case wal.KindInsert, wal.KindDelete, wal.KindReplace:
		// A bare statement record (logs written before every commit
		// journaled a marker) is a group of one.
		return st.ApplyReplicatedGroup([]wal.Op{op}, "")
	case wal.KindRebuild:
		_ = st.Rebuild()
	case wal.KindVacuum:
		_, _ = st.Vacuum()
	case wal.KindSQL:
		return st.replaySQL(op.SQL)
	case wal.KindSchema:
		return st.validateSchemaDef(op.Def)
	default:
		return fmt.Errorf("store: cannot replay unknown WAL operation %s", op.Kind)
	}
	return nil
}

// replaySQL re-runs one journaled raw-SQL script, in recovery or on a
// replica, through SQL's writer half; like every replayed operation its
// outcome is ignored. Logs written before raw-SQL transactions were refused
// can hold BEGIN/COMMIT/ROLLBACK records whose span crosses scripts.
// Recovery runs such a script, and every script while a span is open,
// statement by statement, exactly as it ran when journaled, so a committed
// span applies and a rolled-back one does not; OpenAt rolls back a span the
// log leaves open and checkpoints. A replica refuses them: only a primary
// that predates the refusal ships one, and it must checkpoint first.
func (st *Store) replaySQL(text string) error {
	stmts, err := sqlparser.ParseAll(text)
	if err != nil {
		return nil // it failed the same way when it was journaled
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.cat.InTxn() && txnControl(stmts) == "" {
		defer st.publishLocked()
		_, _ = st.sqlLocked(text, stmts)
		return nil
	}
	if !st.replaying {
		return fmt.Errorf("store: replicated SQL %q controls a transaction, which raw SQL no longer may; checkpoint the primary", text)
	}
	_, _ = runScript(st.cat, stmts)
	return nil
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

// Checkpoint writes a snapshot of the full relational representation and
// truncates the WAL under a fresh epoch. It holds the exclusive writer
// lock for the whole snapshot encode + fsync + rename, stalling readers
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
	m := st.view.snapshotModel()
	m.WalEpoch = st.wal.Epoch()
	m.WalApplied = st.walCount
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

// snapshotModel renders one view epoch as a snapshot model, in the
// canonical order the format prescribes (see internal/snapshot). On a
// pinned view it needs no locking; on the live view callers hold the
// writer lock.
func (v *view) snapshotModel() *snapshot.Model {
	m := &snapshot.Model{
		NextUID: v.nextUID,
		NextWid: v.nextWid,
		NextTid: v.nextTid,
		N:       int64(v.n),
	}
	v.usersTable.Scan(func(_ engine.RowID, row []val.Value) bool {
		m.UserRows = append(m.UserRows, snapshot.User{UID: row[0].AsInt(), Name: row[1].AsString()})
		return true
	})
	slices.SortFunc(m.UserRows, func(a, b snapshot.User) int { return int(a.UID - b.UID) })
	v.d.Scan(func(_ engine.RowID, row []val.Value) bool {
		m.DRows = append(m.DRows, snapshot.DRow{Wid: row[0].AsInt(), Depth: row[1].AsInt()})
		return true
	})
	slices.SortFunc(m.DRows, func(a, b snapshot.DRow) int { return int(a.Wid - b.Wid) })
	v.s.Scan(func(_ engine.RowID, row []val.Value) bool {
		m.SRows = append(m.SRows, snapshot.SRow{Wid1: row[0].AsInt(), Wid2: row[1].AsInt()})
		return true
	})
	slices.SortFunc(m.SRows, func(a, b snapshot.SRow) int { return int(a.Wid1 - b.Wid1) })

	for uid, name := range v.usersByID {
		m.Users = append(m.Users, snapshot.User{UID: int64(uid), Name: name})
	}
	slices.SortFunc(m.Users, func(a, b snapshot.User) int { return int(a.UID - b.UID) })
	for wid, p := range v.pathByWid {
		pe := snapshot.PathEntry{Wid: wid}
		for _, u := range p {
			pe.Path = append(pe.Path, int64(u))
		}
		m.Paths = append(m.Paths, pe)
	}
	slices.SortFunc(m.Paths, func(a, b snapshot.PathEntry) int { return int(a.Wid - b.Wid) })

	v.e.Scan(func(_ engine.RowID, row []val.Value) bool {
		m.Edges = append(m.Edges, snapshot.Edge{
			Wid1: row[0].AsInt(), UID: row[1].AsInt(), Wid2: row[2].AsInt(),
		})
		return true
	})
	slices.SortFunc(m.Edges, func(a, b snapshot.Edge) int {
		if a.Wid1 != b.Wid1 {
			return int(a.Wid1 - b.Wid1)
		}
		if a.UID != b.UID {
			return int(a.UID - b.UID)
		}
		return int(a.Wid2 - b.Wid2) // total order even for raw-SQL duplicate edges
	})

	for _, name := range v.relOrder {
		ri := v.rels[name]
		rd := snapshot.RelData{Def: snapshot.Relation{Name: ri.def.Name}}
		for _, c := range ri.def.Columns {
			rd.Def.Columns = append(rd.Def.Columns, snapshot.Column{Name: c.Name, Kind: c.Type})
		}
		ri.star.Scan(func(_ engine.RowID, row []val.Value) bool {
			rd.Star = append(rd.Star, snapshot.StarRow{
				Tid:  row[0].AsInt(),
				Vals: append([]val.Value(nil), row[1:]...),
			})
			return true
		})
		slices.SortFunc(rd.Star, func(a, b snapshot.StarRow) int { return int(a.Tid - b.Tid) })
		ri.v.Scan(func(_ engine.RowID, row []val.Value) bool {
			rd.V = append(rd.V, snapshot.VRow{
				Wid: row[0].AsInt(), Tid: row[1].AsInt(), Key: row[2],
				Sign: row[3].AsString(), Expl: row[4].AsString(),
			})
			return true
		})
		sort.Slice(rd.V, func(i, j int) bool {
			a, b := rd.V[i], rd.V[j]
			if a.Wid != b.Wid {
				return a.Wid < b.Wid
			}
			if a.Tid != b.Tid {
				return a.Tid < b.Tid
			}
			if a.Sign != b.Sign {
				return a.Sign < b.Sign
			}
			if a.Expl != b.Expl {
				return a.Expl < b.Expl
			}
			// Raw SQL can insert rows that tie on every column above; the
			// key's canonical encoding keeps the order total so identical
			// stores always snapshot to identical bytes.
			return a.Key.Key() < b.Key.Key()
		})
		m.Rels = append(m.Rels, rd)
	}

	// Index definitions of every internal table, built-ins included —
	// recording them all keeps the render stateless; loading skips ones
	// that already exist. Tables in schema order, names sorted per table.
	type namedTable struct {
		name string
		t    *engine.Table
	}
	nts := []namedTable{{"Users", v.usersTable}, {"_d", v.d}, {"_e", v.e}, {"_s", v.s}}
	for _, name := range v.relOrder {
		ri := v.rels[name]
		nts = append(nts, namedTable{name + "_star", ri.star}, namedTable{name + "_v", ri.v})
	}
	for _, nt := range nts {
		ixs := nt.t.Indexes()
		names := make([]string, 0, len(ixs))
		for n := range ixs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ix := ixs[n]
			def := snapshot.IndexDef{Table: nt.name, Name: n, Ordered: ix.Ordered()}
			for _, c := range ix.Cols() {
				def.Cols = append(def.Cols, nt.t.Schema().Columns[c].Name)
			}
			m.Indexes = append(m.Indexes, def)
		}
	}
	return m
}

// SnapshotModel renders the current published snapshot as a snapshot
// model; used by the benchmarks and format tests. Pinning one view for the
// whole render keeps it a single consistent epoch with no locking.
func (st *Store) SnapshotModel() *snapshot.Model {
	return st.pin().snapshotModel()
}

// loadSnapshot populates a freshly opened (empty) store from a model,
// after validating that the caller's schema matches the one the snapshot
// was taken under.
func (st *Store) loadSnapshot(m *snapshot.Model) error {
	if m.Lazy {
		return fmt.Errorf("store: the snapshot header says the directory was created with the lazy representation, which is no longer supported")
	}
	if len(m.Rels) != len(st.relOrder) {
		return fmt.Errorf("store: snapshot has %d relations, schema declares %d", len(m.Rels), len(st.relOrder))
	}
	for i, name := range st.relOrder {
		def := st.rels[name].def
		sd := m.Rels[i].Def
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

	// Drop the root world pre-seeded by open(); the snapshot carries it.
	if id, ok := st.d.LookupPK(val.Int(0)); ok {
		if err := st.d.Delete(id); err != nil {
			return err
		}
	}

	// Physical table contents, verbatim.
	for _, u := range m.UserRows {
		if _, err := st.usersTable.Insert([]val.Value{val.Int(u.UID), val.Str(u.Name)}); err != nil {
			return fmt.Errorf("store: loading snapshot user row %d: %w", u.UID, err)
		}
	}
	for _, d := range m.DRows {
		if _, err := st.d.Insert([]val.Value{val.Int(d.Wid), val.Int(d.Depth)}); err != nil {
			return fmt.Errorf("store: loading snapshot world %d: %w", d.Wid, err)
		}
	}
	for _, s := range m.SRows {
		if _, err := st.s.Insert([]val.Value{val.Int(s.Wid1), val.Int(s.Wid2)}); err != nil {
			return err
		}
	}

	// Logical catalogs.
	st.widByPath = make(map[string]int64, len(m.Paths))
	st.pathByWid = make(map[int64]core.Path, len(m.Paths))
	st.worldsGen++
	st.usersGen++
	for _, u := range m.Users {
		st.usersByID[core.UserID(u.UID)] = u.Name
		st.usersByName[u.Name] = core.UserID(u.UID)
	}
	for _, pe := range m.Paths {
		p := make(core.Path, len(pe.Path))
		for i, u := range pe.Path {
			p[i] = core.UserID(u)
		}
		st.widByPath[p.Key()] = pe.Wid
		st.pathByWid[pe.Wid] = p
	}
	for _, e := range m.Edges {
		if _, err := st.e.Insert([]val.Value{val.Int(e.Wid1), val.Int(e.UID), val.Int(e.Wid2)}); err != nil {
			return err
		}
	}
	for i, name := range st.relOrder {
		ri := st.rels[name]
		for _, s := range m.Rels[i].Star {
			row := make([]val.Value, 0, len(s.Vals)+1)
			row = append(row, val.Int(s.Tid))
			row = append(row, s.Vals...)
			if _, err := ri.star.Insert(row); err != nil {
				return fmt.Errorf("store: loading snapshot tuple %s/%d: %w", name, s.Tid, err)
			}
		}
		for _, v := range m.Rels[i].V {
			if _, err := ri.v.Insert([]val.Value{
				val.Int(v.Wid), val.Int(v.Tid), v.Key, val.Str(v.Sign), val.Str(v.Expl),
			}); err != nil {
				return fmt.Errorf("store: loading snapshot valuation %s/(%d,%d): %w", name, v.Wid, v.Tid, err)
			}
		}
	}
	st.nextUID = m.NextUID
	st.nextWid = m.NextWid
	st.nextTid = m.NextTid
	st.n = int(m.N)

	// Recreate the recorded secondary indexes. Built-ins (and anything else
	// open() already made) are matched by name and verified; the rest —
	// user-created via journaled CREATE [ORDERED] INDEX — are rebuilt from
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
