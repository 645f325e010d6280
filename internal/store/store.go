// Package store is the relational representation of a belief database
// (Sect. 5): the internal schema R* = (R*_1..R*_r, Users, V_1..V_r, E, D, S)
// materialized in the embedded engine, maintained incrementally by the
// paper's update algorithms — Algorithm 2 (idWorld), Algorithm 3 (dss) and
// Algorithm 4 (insertTuple with implicit-belief propagation) — plus deletes
// and new-user inserts (Sect. 5.3).
//
// Internal table names: `Users` (uid, name) as in Fig. 5, `_e` (wid1, uid,
// wid2), `_d` (wid, d), `_s` (wid1, wid2), and per belief relation R the
// tables `R_star` (tid, key, atts...) and `R_v` (wid, tid, key, s, e).
// Signs are stored as '+'/'-' and explicitness as 'y'/'n', exactly as in
// Fig. 5.
//
// Two documented deviations from the paper's pseudo-code (see DESIGN.md):
// the dss-precedence check of Algorithm 4 line 14 treats the propagated
// tuple itself as non-conflicting (the literal reading would block its own
// propagation), and world creation also refreshes the S links of existing
// deeper states (the paper only fixes E edges).
package store

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Signs and explicitness flags as stored in the V relations.
const (
	SignPos     = "+"
	SignNeg     = "-"
	ExplicitYes = "y"
	ExplicitNo  = "n"
)

// Column describes one external-schema attribute.
type Column struct {
	Name string
	Type val.Kind
}

// Relation describes one belief-annotated external relation; the first
// column is the external key.
type Relation struct {
	Name    string
	Columns []Column
}

// relInfo is the runtime state of one belief relation.
type relInfo struct {
	def  Relation
	star *engine.Table // R_star(tid, key, atts...)
	v    *engine.Table // R_v(wid, tid, key, s, e)
}

// Store is a belief database persisted in the relational internal schema.
//
// The Store is the one owning facade of the internal schema's engine
// catalog: nothing else holds the catalog, its writer lock or its
// publication. It is safe for concurrent use under the single-writer /
// snapshot-reader (MVCC) model: the update algorithms (Insert/Delete/
// Replace, AddUser, Rebuild, Vacuum, the batch paths) and mutating raw SQL
// (SQL) hold the exclusive writer lock and, on completion, publish an
// immutable view of the whole representation through an atomic pointer
// swap. Read methods (WorldContent, Entails, ExplicitStatements, Stats, user
// lookups) and read-only SQL — translated BeliefSQL SELECTs included — pin
// the published view and run entirely lock-free against it, so a long
// analytical read never delays a commit round and a heavy commit never
// stalls readers. A pinned view is one consistent epoch: readers only ever
// observe fully-applied statements across R_star/R_v/_e/_d/_s, regardless
// of what the writer is doing.
type Store struct {
	// view is the live, writer-owned epoch: the engine catalog and tables
	// plus the logical catalogs and counters. Its fields and read helpers
	// are promoted onto Store for the writer paths; readers use pin()
	// instead.
	view

	// mu is the stack-wide single-writer lock: every mutation of the
	// internal schema holds it exclusively. Readers never take it.
	mu sync.RWMutex

	// snap is the most recently published immutable view (see view.go).
	snap atomic.Pointer[view]

	// replaying suppresses per-operation publication during WAL replay;
	// openAt publishes once when recovery completes.
	replaying bool

	// bulk suppresses per-statement publication during BulkLoad, which
	// publishes once when the load completes (see bulk.go).
	bulk bool

	// Durability (see persist.go). All nil/zero for in-memory stores: a
	// nil wal makes logOp a no-op. The fields are guarded by mu like the
	// tables they journal.
	wal      *wal.Log
	walCount uint64 // records appended since the last checkpoint
	walErr   error  // sticky append failure: the store turns read-only
	snapPath string
	lockFile *os.File // dir/LOCK flock; enforces one process per directory
	durable  bool
	closed   bool

	// Exactly-once retry dedup (see batch.go): idempotency tokens of
	// successfully applied batches mapped to their results, evicted FIFO
	// past maxAppliedTokens. Rebuilt from the WAL's BatchBegin markers on
	// recovery; guarded by mu like everything they index.
	appliedTokens map[string]BatchResult
	tokenOrder    []string
}

// reserved internal table names that belief relations must avoid.
var reservedRelNames = map[string]bool{"Users": true, "_e": true, "_d": true, "_s": true}

// Open creates the internal schema for the given external relations on a
// fresh embedded database, in the paper's canonical representation (every
// implicit belief materialized).
func Open(rels []Relation) (*Store, error) {
	st := &Store{
		view: view{
			cat:         engine.NewCatalog(),
			rels:        make(map[string]*relInfo),
			usersByID:   make(map[core.UserID]string),
			usersByName: make(map[string]core.UserID),
			nextUID:     1,
			widByPath:   make(map[string]int64),
			pathByWid:   make(map[int64]core.Path),
			nextWid:     1,
			nextTid:     1,
		},
	}

	mustTable := func(name string, cols []engine.Column, pk int, indexes ...[]string) (*engine.Table, error) {
		schema, err := engine.NewSchema(cols)
		if err != nil {
			return nil, err
		}
		t, err := st.cat.CreateTable(name, schema, pk)
		if err != nil {
			return nil, err
		}
		for i, idx := range indexes {
			if _, err := t.CreateIndex(fmt.Sprintf("%s_ix%d", name, i), idx); err != nil {
				return nil, err
			}
		}
		return t, nil
	}

	var err error
	st.usersTable, err = mustTable("Users", []engine.Column{
		{Name: "uid", Type: val.KindInt}, {Name: "name", Type: val.KindString},
	}, 0, []string{"name"})
	if err != nil {
		return nil, err
	}
	st.e, err = mustTable("_e", []engine.Column{
		{Name: "wid1", Type: val.KindInt}, {Name: "uid", Type: val.KindInt}, {Name: "wid2", Type: val.KindInt},
	}, -1, []string{"wid1", "uid"}, []string{"wid1"})
	if err != nil {
		return nil, err
	}
	st.d, err = mustTable("_d", []engine.Column{
		{Name: "wid", Type: val.KindInt}, {Name: "d", Type: val.KindInt},
	}, 0)
	if err != nil {
		return nil, err
	}
	st.s, err = mustTable("_s", []engine.Column{
		{Name: "wid1", Type: val.KindInt}, {Name: "wid2", Type: val.KindInt},
	}, 0)
	if err != nil {
		return nil, err
	}

	for _, r := range rels {
		if err := st.createRelation(r); err != nil {
			return nil, err
		}
	}

	// The root world ε is wid 0 at depth 0 (Fig. 5). It has no S entry.
	if _, err := st.d.Insert([]val.Value{val.Int(0), val.Int(0)}); err != nil {
		return nil, err
	}
	st.widByPath[""] = 0
	st.pathByWid[0] = core.Path{}
	st.worldsGen++

	// Publish the initial (empty) epoch so readers have a pinned view before
	// the first mutation. No other goroutine holds st yet.
	st.publishLocked()
	return st, nil
}

func (st *Store) createRelation(r Relation) error {
	if reservedRelNames[r.Name] || r.Name == "" {
		return fmt.Errorf("store: relation name %q is reserved", r.Name)
	}
	if _, dup := st.rels[r.Name]; dup {
		return fmt.Errorf("store: duplicate relation %q", r.Name)
	}
	if len(r.Columns) == 0 {
		return fmt.Errorf("store: relation %q has no columns", r.Name)
	}
	for _, c := range r.Columns {
		if c.Name == "tid" {
			return fmt.Errorf("store: relation %q: column name tid is reserved", r.Name)
		}
	}
	starCols := make([]engine.Column, 0, len(r.Columns)+1)
	starCols = append(starCols, engine.Column{Name: "tid", Type: val.KindInt})
	for _, c := range r.Columns {
		starCols = append(starCols, engine.Column{Name: c.Name, Type: c.Type})
	}
	starSchema, err := engine.NewSchema(starCols)
	if err != nil {
		return fmt.Errorf("store: relation %q: %w", r.Name, err)
	}
	star, err := st.cat.CreateTable(r.Name+"_star", starSchema, 0)
	if err != nil {
		return err
	}
	if _, err := star.CreateIndex(r.Name+"_star_key", []string{r.Columns[0].Name}); err != nil {
		return err
	}

	vSchema, err := engine.NewSchema([]engine.Column{
		{Name: "wid", Type: val.KindInt},
		{Name: "tid", Type: val.KindInt},
		{Name: "key", Type: r.Columns[0].Type},
		{Name: "s", Type: val.KindString},
		{Name: "e", Type: val.KindString},
	})
	if err != nil {
		return err
	}
	v, err := st.cat.CreateTable(r.Name+"_v", vSchema, -1)
	if err != nil {
		return err
	}
	for i, idx := range [][]string{{"wid", "key"}, {"wid"}, {"tid"}, {"wid", "tid"}} {
		if _, err := v.CreateIndex(fmt.Sprintf("%s_v_ix%d", r.Name, i), idx); err != nil {
			return err
		}
	}
	st.rels[r.Name] = &relInfo{def: r, star: star, v: v}
	st.relOrder = append(st.relOrder, r.Name)
	return nil
}

// Snapshot returns the engine catalog of the current published view: the
// frozen internal tables of one epoch. The result is read-only and never
// observes later commits.
func (st *Store) Snapshot() *engine.Catalog { return st.pin().cat }

// DB returns the store itself. It exists only so the benchmark module's
// st.DB().Snapshot() calls keep compiling; everything else calls Snapshot.
func (st *Store) DB() *Store { return st }

// Relations returns the external relation definitions in creation order.
// The relation set is fixed at Open time (rels/relOrder are never mutated
// afterwards), so Relations and Relation need no locking.
func (st *Store) Relations() []Relation {
	out := make([]Relation, 0, len(st.relOrder))
	for _, n := range st.relOrder {
		out = append(out, st.rels[n].def)
	}
	return out
}

// Relation returns the definition of the named belief relation.
func (st *Store) Relation(name string) (Relation, bool) {
	ri, ok := st.rels[name]
	if !ok {
		return Relation{}, false
	}
	return ri.def, true
}

// AddUser registers a user and inserts back edges E(x, u, 0) from every
// existing world to the root, as prescribed for new-user inserts in
// Sect. 5.3.
func (st *Store) AddUser(name string) (core.UserID, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	if name == "" {
		return 0, fmt.Errorf("store: empty user name")
	}
	if _, dup := st.usersByName[name]; dup {
		return 0, fmt.Errorf("store: user %q already exists", name)
	}
	// Raw SQL may already have taken uids in Users; skip them before
	// journaling, so the record cannot fail on replay (which re-runs the
	// raw insert first and skips the same uids).
	uid := core.UserID(st.nextUID)
	for {
		if _, taken := st.usersTable.LookupPK(val.Int(int64(uid))); !taken {
			break
		}
		uid++
	}
	if err := st.logOp(wal.AddUser(name)); err != nil {
		return 0, err
	}
	st.nextUID = int64(uid) + 1
	if _, err := st.usersTable.Insert([]val.Value{val.Int(int64(uid)), val.Str(name)}); err != nil {
		return 0, err
	}
	for wid := range st.pathByWid {
		// A brand-new user appears in no state path, so dss(w·u) = ε.
		if st.pathByWid[wid].Last() == uid {
			continue // cannot happen for a fresh uid; kept for clarity
		}
		if err := st.eSet(wid, uid, 0); err != nil {
			return 0, err
		}
	}
	st.usersByID[uid] = name
	st.usersByName[name] = uid
	st.usersGen++
	return uid, nil
}

// UserID resolves a user name against the current published snapshot.
func (st *Store) UserID(name string) (core.UserID, bool) {
	v := st.pin()
	uid, ok := v.usersByName[name]
	return uid, ok
}

// UserName resolves a user id against the current published snapshot.
func (st *Store) UserName(uid core.UserID) (string, bool) {
	v := st.pin()
	n, ok := v.usersByID[uid]
	return n, ok
}

// Users returns all user ids in ascending order, as of the current
// published snapshot.
func (st *Store) Users() []core.UserID {
	v := st.pin()
	out := make([]core.UserID, 0, len(v.usersByID))
	for uid := range v.usersByID {
		out = append(out, uid)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of explicit belief statements (the paper's n) in
// the current published snapshot.
func (st *Store) Len() int {
	return st.pin().n
}
