package store

import (
	"sort"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/val"
)

// allVRows returns every valuation row of a relation.
func allVRows(ri *relInfo) []vRow {
	var out []vRow
	ri.v.Scan(func(id engine.RowID, row []val.Value) bool {
		out = append(out, vRowFrom(id, row))
		return true
	})
	return out
}

// WorldContent materializes the entailed belief world D̄_w for any path
// w ∈ Û* from the relational representation: the path resolves to its
// deepest suffix state (whose world equals D̄_w, Theorem 17) and the V rows
// of that state are decoded back into tuples. The traversal runs lock-free
// against the current published snapshot.
func (st *Store) WorldContent(p core.Path) (*core.World, error) {
	return st.pin().worldContent(p)
}

func (v *view) worldContent(p core.Path) (*core.World, error) {
	// A path that is not itself a state carries no explicit statements
	// (D_w = ∅): its content equals its deepest suffix state's world, but
	// every entry is implicit from w's point of view.
	_, isState := v.widOf(p)
	wid := v.dssWid(p)
	w := core.NewWorld()
	for _, name := range v.relOrder {
		ri := v.rels[name]
		for _, r := range v.vRowsByWid(ri, wid) {
			t, err := v.starGet(ri, r.tid)
			if err != nil {
				return nil, err
			}
			sign := core.Pos
			if r.sign == SignNeg {
				sign = core.Neg
			}
			if _, err := w.Add(t, sign, isState && r.expl == ExplicitYes); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// Entails decides the entailment D |= w t^s (Def. 6 semantics, unstated
// negatives included) directly from the relational representation.
func (st *Store) Entails(p core.Path, t core.Tuple, s core.Sign) (bool, error) {
	w, err := st.WorldContent(p)
	if err != nil {
		return false, err
	}
	if s == core.Pos {
		return w.HasPos(t), nil
	}
	return w.HasNeg(t), nil
}

// ExplicitStatements reads back all explicit belief statements (V rows with
// e = 'y'), in deterministic order. Together with the user set this is the
// full logical content of the belief database. It runs lock-free against
// the current published snapshot.
func (st *Store) ExplicitStatements() ([]core.Statement, error) {
	return st.pin().explicitStatements()
}

func (v *view) explicitStatements() ([]core.Statement, error) {
	var out []core.Statement
	for _, name := range v.relOrder {
		ri := v.rels[name]
		for _, r := range allVRows(ri) {
			if r.expl != ExplicitYes {
				continue
			}
			t, err := v.starGet(ri, r.tid)
			if err != nil {
				return nil, err
			}
			sign := core.Pos
			if r.sign == SignNeg {
				sign = core.Neg
			}
			out = append(out, core.Statement{Path: v.pathByWid[r.wid].Clone(), Sign: sign, Tuple: t})
		}
	}
	sort.Slice(out, func(i, j int) bool { return core.StatementLess(out[i], out[j]) })
	return out, nil
}

// States returns the world ids and paths of all states, sorted by id —
// the D relation enriched with paths — as of the current published
// snapshot.
func (st *Store) States() map[int64]core.Path {
	v := st.pin()
	out := make(map[int64]core.Path, len(v.pathByWid))
	for wid, p := range v.pathByWid {
		out[wid] = p.Clone()
	}
	return out
}

// WidOf exposes path-to-world-id resolution for tests and tools.
func (st *Store) WidOf(p core.Path) (int64, bool) {
	return st.pin().widOf(p)
}
