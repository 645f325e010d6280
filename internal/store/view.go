package store

import (
	"beliefdb/internal/core"
	"beliefdb/internal/engine"
)

// view is one consistent epoch of the belief database: the engine tables of
// the internal schema plus the logical catalogs (users, world paths,
// counters) that live outside them. The Store embeds a view as its live,
// writer-owned state; every commit publishes an immutable copy of it — with
// the tables replaced by their frozen snapshots — through an atomic pointer
// swap. Readers pin the published view with one atomic load and traverse it
// entirely lock-free: a pinned view never changes, never observes a later
// commit, and is reclaimed by the garbage collector once the last reader
// drops it and newer epochs stop sharing its structure.
//
// Every method on *view is a pure read. Writers reach the same methods
// through promotion on Store (resolving against the live view, under the
// writer lock); readers call them on a pinned snapshot.
type view struct {
	rels     map[string]*relInfo
	relOrder []string

	usersTable *engine.Table // Users(uid, name)
	e, d, s    *engine.Table

	usersByID   map[core.UserID]string
	usersByName map[string]core.UserID
	nextUID     int64
	usersGen    uint64 // bumped on every usersBy* mutation

	widByPath map[string]int64
	pathByWid map[int64]core.Path
	nextWid   int64
	nextTid   int64
	worldsGen uint64 // bumped on every widByPath/pathByWid mutation

	n int // number of explicit belief statements
}

// pin returns the most recently published view. The result is immutable and
// internally consistent; it does not observe commits that happen after the
// pin. Callers need no lock.
func (st *Store) pin() *view { return st.snap.Load() }

// publishView builds a fresh immutable view from the live logical catalogs
// and the frozen engine catalog fcat, and installs it for readers. It runs
// under the writer lock — either from publishLocked (store mutators) or as
// the sqldb publish hook when raw SQL mutates the internal schema. Logical
// maps whose generation is unchanged are shared with the previously
// published view (published maps are immutable — the writer only ever
// mutates its live copies); a commit that touched no worlds or users then
// publishes in O(1) map work. The tables share all row and index storage
// with the live ones via the engine's copy-on-write epochs.
func (st *Store) publishView(fcat *engine.Catalog) {
	prev := st.snap.Load()
	nv := &view{
		relOrder:   st.relOrder,
		rels:       make(map[string]*relInfo, len(st.rels)),
		usersTable: fcat.Table("Users"),
		e:          fcat.Table("_e"),
		d:          fcat.Table("_d"),
		s:          fcat.Table("_s"),
		nextUID:    st.nextUID,
		usersGen:   st.usersGen,
		nextWid:    st.nextWid,
		nextTid:    st.nextTid,
		worldsGen:  st.worldsGen,
		n:          st.n,
	}
	for name, ri := range st.rels {
		nv.rels[name] = &relInfo{def: ri.def, star: fcat.Table(name + "_star"), v: fcat.Table(name + "_v")}
	}
	if prev != nil && prev.usersGen == st.usersGen {
		nv.usersByID, nv.usersByName = prev.usersByID, prev.usersByName
	} else {
		nv.usersByID = make(map[core.UserID]string, len(st.usersByID))
		nv.usersByName = make(map[string]core.UserID, len(st.usersByName))
		for uid, name := range st.usersByID {
			nv.usersByID[uid] = name
		}
		for name, uid := range st.usersByName {
			nv.usersByName[name] = uid
		}
	}
	if prev != nil && prev.worldsGen == st.worldsGen {
		nv.widByPath, nv.pathByWid = prev.widByPath, prev.pathByWid
	} else {
		nv.widByPath = make(map[string]int64, len(st.widByPath))
		nv.pathByWid = make(map[int64]core.Path, len(st.pathByWid))
		for k, wid := range st.widByPath {
			nv.widByPath[k] = wid
		}
		for wid, p := range st.pathByWid {
			nv.pathByWid[wid] = p
		}
	}
	st.snap.Store(nv)
}

// publishLocked publishes a fresh snapshot after a mutation. Callers hold
// the writer lock; mutators register it with defer immediately after the
// unlock defer so it runs first (still under the lock). During WAL replay
// and bulk loads publication is suppressed — openAt and BulkLoad publish
// once when they finish.
func (st *Store) publishLocked() {
	if st.replaying || st.bulk {
		return
	}
	st.db.PublishLocked()
}
