package store

import (
	"fmt"
	"slices"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/kripke"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Rebuild reconstructs the V/E/D/S tables from scratch: it reads the
// explicit statements back, rebuilds the canonical Kripke structure with
// internal/kripke, and re-serializes it. It garbage-collects unreferenced
// ground tuples and states that lost their support. The incremental
// algorithms are differentially tested against Rebuild, which is the
// executable specification of the representation.
func (st *Store) Rebuild() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	if err := st.logOp(wal.Rebuild()); err != nil {
		return err
	}

	stmts, err := st.view.explicitStatements()
	if err != nil {
		return err
	}
	base := core.NewBeliefBase()
	for _, s := range stmts {
		if _, err := base.Insert(s); err != nil {
			return fmt.Errorf("store: rebuild found inconsistent statement %s: %w", s, err)
		}
	}
	users := make([]core.UserID, 0, len(st.usersByID))
	for uid := range st.usersByID {
		users = append(users, uid)
	}
	slices.Sort(users)
	k := kripke.Build(base, users)

	clear := func(t *engine.Table) error {
		var ids []engine.RowID
		t.Scan(func(id engine.RowID, _ []val.Value) bool {
			ids = append(ids, id)
			return true
		})
		for _, id := range ids {
			if err := t.Delete(id); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range []*engine.Table{st.e, st.d, st.s} {
		if err := clear(t); err != nil {
			return err
		}
	}
	for _, ri := range st.rels {
		if err := clear(ri.v); err != nil {
			return err
		}
		if err := clear(ri.star); err != nil {
			return err
		}
	}

	// Re-serialize the canonical structure. State ids become world ids
	// directly (the root is 0 in both).
	st.widByPath = make(map[string]int64)
	st.pathByWid = make(map[int64]core.Path)
	st.worldsGen++
	st.nextTid = 1
	maxWid := int64(0)
	for _, s := range k.States() {
		wid := int64(s.ID)
		st.widByPath[s.Path.Key()] = wid
		st.pathByWid[wid] = s.Path.Clone()
		if wid > maxWid {
			maxWid = wid
		}
		if _, err := st.d.Insert([]val.Value{val.Int(wid), val.Int(int64(s.Depth))}); err != nil {
			return err
		}
		if s.Depth > 0 {
			if _, err := st.s.Insert([]val.Value{val.Int(wid), val.Int(int64(s.SuffixLink))}); err != nil {
				return err
			}
		}
		for uid, to := range s.Edges {
			if _, err := st.e.Insert([]val.Value{val.Int(wid), val.Int(int64(uid)), val.Int(int64(to))}); err != nil {
				return err
			}
		}
	}
	st.nextWid = maxWid + 1

	n := 0
	for _, s := range k.States() {
		wid := int64(s.ID)
		for _, sign := range []core.Sign{core.Pos, core.Neg} {
			for _, e := range s.World.Entries(sign) {
				ri, ok := st.rels[e.Tuple.Rel]
				if !ok {
					return fmt.Errorf("store: rebuild: unknown relation %q", e.Tuple.Rel)
				}
				tid, err := st.starFindOrCreate(ri, e.Tuple)
				if err != nil {
					return err
				}
				key, _ := val.Coerce(e.Tuple.Key(), ri.def.Columns[0].Type)
				expl := ExplicitNo
				if e.Explicit {
					expl = ExplicitYes
					n++
				}
				if _, err := ri.v.Insert([]val.Value{
					val.Int(wid), val.Int(tid), key, val.Str(signStr(sign)), val.Str(expl),
				}); err != nil {
					return err
				}
			}
		}
	}
	st.n = n
	return nil
}
