package store

import (
	"fmt"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/val"
)

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
		var err error
		ri.v.Scan(func(id engine.RowID, row []val.Value) bool {
			if row[4].AsString() != ExplicitYes {
				return true
			}
			var s core.Statement
			if s, err = v.explicitStatement(ri, vRowFrom(id, row)); err != nil {
				return false
			}
			out = append(out, s)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	core.SortStatements(out)
	return out, nil
}

// explicitStatement decodes an explicit V row into its belief statement.
func (v *view) explicitStatement(ri *relInfo, r vRow) (core.Statement, error) {
	t, err := v.starGet(ri, r.tid)
	if err != nil {
		return core.Statement{}, err
	}
	sign := core.Pos
	if r.sign == SignNeg {
		sign = core.Neg
	}
	return core.Statement{Path: v.pathByWid[r.wid].Clone(), Sign: sign, Tuple: t}, nil
}

// ExplicitIn returns the explicit statements of relation rel with sign s
// in world p, in canonical order. A non-nil key restricts them to that
// external key, probed through R_v's (wid, key) index; otherwise the
// world's (wid) index serves. A path that is not a state holds none. It is
// how BeliefSQL DELETE and UPDATE find their candidate targets, and runs
// lock-free against the current published snapshot.
func (st *Store) ExplicitIn(rel string, p core.Path, s core.Sign, key *val.Value) ([]core.Statement, error) {
	v := st.pin()
	ri, ok := v.rels[rel]
	if !ok {
		return nil, fmt.Errorf("store: unknown relation %q", rel)
	}
	wid, ok := v.widOf(p)
	if !ok {
		return nil, nil
	}
	var rows []vRow
	if key != nil {
		rows = v.vRowsByWidKey(ri, wid, *key)
	} else {
		rows = v.vRowsByWid(ri, wid)
	}
	sign := signStr(s)
	var out []core.Statement
	for _, r := range rows {
		if r.expl != ExplicitYes || r.sign != sign {
			continue
		}
		stmt, err := v.explicitStatement(ri, r)
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
	}
	core.SortStatements(out)
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
