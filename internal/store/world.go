package store

import (
	"fmt"
	"sort"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/val"
)

// eLookup returns wid2 of the edge E(wid1, uid, wid2), if present.
func (v *view) eLookup(wid1 int64, uid core.UserID) (int64, bool) {
	idx := v.e.IndexOn([]int{0, 1})
	ids := idx.Lookup([]val.Value{val.Int(wid1), val.Int(int64(uid))})
	if len(ids) == 0 {
		return 0, false
	}
	row := v.e.Get(ids[0])
	return row[2].AsInt(), true
}

// eSet redirects (or creates) the edge E(wid1, uid, *) to wid2. The common
// redirect case rewrites the single existing row in place: both _e indexes
// cover only (wid1, uid) prefixes, which don't change, so Update skips all
// index maintenance and the redirect costs one page write.
func (st *Store) eSet(wid1 int64, uid core.UserID, wid2 int64) error {
	idx := st.e.IndexOn([]int{0, 1})
	ids := idx.Lookup([]val.Value{val.Int(wid1), val.Int(int64(uid))})
	if len(ids) == 1 {
		return st.e.Update(ids[0], []val.Value{val.Int(wid1), val.Int(int64(uid)), val.Int(wid2)})
	}
	for _, id := range append([]engine.RowID(nil), ids...) {
		if err := st.e.Delete(id); err != nil {
			return err
		}
	}
	_, err := st.e.Insert([]val.Value{val.Int(wid1), val.Int(int64(uid)), val.Int(wid2)})
	return err
}

// widOf resolves a belief path to its world id via the path cache. The
// cache mirrors the E*-walk of Algorithm 2 line 1; TestWidCacheAgreesWithE
// asserts the equivalence.
func (v *view) widOf(p core.Path) (int64, bool) {
	wid, ok := v.widByPath[p.Key()]
	return wid, ok
}

// dssWid implements Algorithm 3: the world id of the deepest suffix state
// of w. ε is always a state, so the walk terminates at the root.
func (v *view) dssWid(w core.Path) int64 {
	for i := 0; i <= len(w); i++ {
		if wid, ok := v.widOf(w.Suffix(i)); ok {
			return wid
		}
	}
	return 0
}

// dependents returns the world ids of all states having w as a proper
// suffix, in ascending depth order — the propagation set of Algorithm 4
// (T2) and of deletions.
func (v *view) dependents(w core.Path) []int64 {
	var out []int64
	for wid, p := range v.pathByWid {
		if len(p) > len(w) && p.HasSuffix(w) {
			out = append(out, wid)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := v.pathByWid[out[i]], v.pathByWid[out[j]]
		if len(pi) != len(pj) {
			return len(pi) < len(pj)
		}
		return pi.Key() < pj.Key()
	})
	return out
}

// idWorld implements Algorithm 2: it returns the world id of w, creating
// the world (and, recursively, its ancestors) if needed. Creation rewires
// edges, records depth and suffix link, and copies the deepest suffix
// state's valuation rows as implicit tuples (line 9).
func (st *Store) idWorld(w core.Path) (int64, error) {
	if wid, ok := st.widOf(w); ok {
		return wid, nil
	}
	d := len(w)
	parent, err := st.idWorld(w[:d-1])
	if err != nil {
		return 0, err
	}
	// Create a new id x for w and a new entry in D (line 4).
	x := st.nextWid
	st.nextWid++
	if _, err := st.d.Insert([]val.Value{val.Int(x), val.Int(int64(d))}); err != nil {
		return 0, err
	}
	st.widByPath[w.Key()] = x
	st.pathByWid[x] = w.Clone()
	st.worldsGen++

	// Redirect the w[d]-edge from the parent (line 5).
	last := w.Last()
	if err := st.eSet(parent, last, x); err != nil {
		return 0, err
	}
	// For all users u except w[d], create a u-edge from x to dss(w·u)
	// (line 6).
	for uid := range st.usersByID {
		if uid == last {
			continue
		}
		if err := st.eSet(x, uid, st.dssWid(w.Append(uid))); err != nil {
			return 0, err
		}
	}
	// For all worlds y ending in w[1,d-1] whose w[d]-edge points at a state
	// shallower than d, redirect it to x (line 7).
	for ywid, yp := range st.pathByWid {
		if ywid == x || ywid == parent || !yp.HasSuffix(w[:d-1]) || yp.Last() == last {
			continue
		}
		if cur, ok := st.eLookup(ywid, last); ok {
			if len(st.pathByWid[cur]) < d {
				if err := st.eSet(ywid, last, x); err != nil {
					return 0, err
				}
			}
		}
	}
	// Refresh stale S links of deeper states for which x is now the
	// deepest suffix of path[1:] (deviation from the paper, which leaves
	// them stale; see the package comment).
	for zwid, zp := range st.pathByWid {
		if zwid == x || len(zp) <= d || !zp[1:].HasSuffix(w) {
			continue
		}
		if rowID, ok := st.s.LookupPK(val.Int(zwid)); ok {
			cur := st.s.Get(rowID)[1].AsInt()
			if len(st.pathByWid[cur]) < d {
				if err := st.s.Update(rowID, []val.Value{val.Int(zwid), val.Int(x)}); err != nil {
					return 0, err
				}
			}
		}
	}
	// Backlink to the deepest suffix state (line 8, errata version):
	// S(x, dss(w[2,d])).
	dss := st.dssWid(w.Suffix(1))
	if _, err := st.s.Insert([]val.Value{val.Int(x), val.Int(dss)}); err != nil {
		return 0, err
	}
	// Insert all tuples of the dss world as implicit tuples (line 9).
	for _, ri := range st.rels {
		rows := st.vRowsByWid(ri, dss)
		for _, r := range rows {
			if _, err := ri.v.Insert([]val.Value{
				val.Int(x), val.Int(r.tid), r.key, val.Str(r.sign), val.Str(ExplicitNo),
			}); err != nil {
				return 0, err
			}
		}
	}
	return x, nil
}

// suffixLinkOf returns S(z): the world z inherits from, or -1 for the root
// (which has no S row and inherits nothing).
func (v *view) suffixLinkOf(z int64) int64 {
	id, ok := v.s.LookupPK(val.Int(z))
	if !ok {
		return -1
	}
	return v.s.Get(id)[1].AsInt()
}

// vRow is one V-relation row. It carries the full row contents — including
// the world id — so consumers never have to re-read the table by rowID,
// which would be unsound across epochs (a rowID pinned from one snapshot
// may have been freed and reused by a later commit).
type vRow struct {
	rowID engine.RowID
	wid   int64
	tid   int64
	key   val.Value
	sign  string
	expl  string
}

func vRowFrom(id engine.RowID, row []val.Value) vRow {
	return vRow{rowID: id, wid: row[0].AsInt(), tid: row[1].AsInt(), key: row[2], sign: row[3].AsString(), expl: row[4].AsString()}
}

// vRowsByWid returns all valuation rows of a world.
func (v *view) vRowsByWid(ri *relInfo, wid int64) []vRow {
	idx := ri.v.IndexOn([]int{0})
	ids := idx.Lookup([]val.Value{val.Int(wid)})
	out := make([]vRow, 0, len(ids))
	for _, id := range ids {
		out = append(out, vRowFrom(id, ri.v.Get(id)))
	}
	return out
}

// vRowsByWidKey returns the valuation rows of a world restricted to one
// external key (the T1/T3/T4 temporary tables of Algorithm 4).
func (v *view) vRowsByWidKey(ri *relInfo, wid int64, key val.Value) []vRow {
	idx := ri.v.IndexOn([]int{0, 2})
	ids := idx.Lookup([]val.Value{val.Int(wid), key})
	out := make([]vRow, 0, len(ids))
	for _, id := range ids {
		out = append(out, vRowFrom(id, ri.v.Get(id)))
	}
	return out
}

// starFindOrCreate returns the internal key (tid) of a ground tuple,
// inserting it into R_star on first use (Algorithm 4 line 1).
func (st *Store) starFindOrCreate(ri *relInfo, t core.Tuple) (int64, error) {
	row, err := st.tupleToStarRow(ri, t)
	if err != nil {
		return 0, err
	}
	idx := ri.star.IndexOn([]int{1}) // key column
	for _, id := range idx.Lookup([]val.Value{row[1]}) {
		existing := ri.star.Get(id)
		same := true
		for i := 1; i < len(row); i++ {
			if !val.Equal(existing[i], row[i]) {
				same = false
				break
			}
		}
		if same {
			return existing[0].AsInt(), nil
		}
	}
	tid := st.nextTid
	st.nextTid++
	row[0] = val.Int(tid)
	if _, err := ri.star.Insert(row); err != nil {
		return 0, err
	}
	return tid, nil
}

// starGet reconstructs the ground tuple stored under tid.
func (v *view) starGet(ri *relInfo, tid int64) (core.Tuple, error) {
	id, ok := ri.star.LookupPK(val.Int(tid))
	if !ok {
		return core.Tuple{}, fmt.Errorf("store: dangling tid %d in %s", tid, ri.def.Name)
	}
	row := ri.star.Get(id)
	return core.Tuple{Rel: ri.def.Name, Vals: append([]val.Value(nil), row[1:]...)}, nil
}

// tupleToStarRow validates arity/types and renders the tuple as an R_star
// row with a zero tid placeholder.
func (v *view) tupleToStarRow(ri *relInfo, t core.Tuple) ([]val.Value, error) {
	if len(t.Vals) != len(ri.def.Columns) {
		return nil, fmt.Errorf("store: tuple arity %d does not match relation %s arity %d",
			len(t.Vals), ri.def.Name, len(ri.def.Columns))
	}
	row := make([]val.Value, len(t.Vals)+1)
	row[0] = val.Int(0)
	for i, v := range t.Vals {
		cv, ok := val.Coerce(v, ri.def.Columns[i].Type)
		if !ok {
			return nil, fmt.Errorf("store: value %s not assignable to %s.%s (%s)",
				v, ri.def.Name, ri.def.Columns[i].Name, ri.def.Columns[i].Type)
		}
		row[i+1] = cv
	}
	return row, nil
}
