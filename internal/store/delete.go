package store

import (
	"fmt"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// Delete removes one explicit belief statement ("delete from BELIEF u ...
// R where ..." resolves to a set of such calls). The paper only sketches
// deletes ("follow a similar semantics as inserts", Sect. 5.3); the
// semantics implemented here is the declarative one: after removal, every
// world's content equals the closure of the remaining explicit statements.
// Removal may therefore *reintroduce* implicit beliefs that the deleted
// statement had been overriding. States are never garbage-collected: a
// state with no explicit content carries exactly its deepest suffix state's
// content, so keeping it is semantically invisible (see Vacuum).
func (st *Store) Delete(stmt core.Statement) (bool, error) {
	res, err := st.ApplyBatch([]BatchOp{{Delete: true, Stmt: stmt}})
	return res.Changed == 1, err
}

// resolveExplicit locates the explicit V row stating stmt, returning its
// world id, coerced key, and row (nil when the statement is not explicitly
// present — an unknown world, unknown ground tuple, or implicit-only
// belief).
func (st *Store) resolveExplicit(ri *relInfo, stmt core.Statement) (int64, val.Value, *vRow) {
	y, ok := st.widOf(stmt.Path)
	if !ok {
		return 0, val.Null(), nil
	}
	tid, ok := st.starFind(ri, stmt.Tuple)
	if !ok {
		return 0, val.Null(), nil
	}
	key, _ := val.Coerce(stmt.Tuple.Key(), ri.def.Columns[0].Type)
	s := signStr(stmt.Sign)
	for _, r := range st.vRowsByWidKey(ri, y, key) {
		if r.tid == tid && r.sign == s && r.expl == ExplicitYes {
			row := r
			return y, key, &row
		}
	}
	return 0, val.Null(), nil
}

// Replace atomically substitutes one explicit statement with another tuple
// of the same sign in the same world (BeliefSQL UPDATE = delete + insert).
// It reports changed=false when the old statement does not exist.
func (st *Store) Replace(old core.Statement, newTuple core.Tuple) (bool, error) {
	if newTuple.Rel != old.Tuple.Rel {
		return false, fmt.Errorf("store: replace cannot change the relation")
	}
	res, err := st.ApplyBatch([]BatchOp{{Replace: true, Stmt: old, NewVals: newTuple.Vals}})
	return res.Changed == 1, err
}

// starFind returns the tid of a ground tuple without creating it.
func (st *Store) starFind(ri *relInfo, t core.Tuple) (int64, bool) {
	row, err := st.tupleToStarRow(ri, t)
	if err != nil {
		return 0, false
	}
	idx := ri.star.IndexOn([]int{1})
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
			return existing[0].AsInt(), true
		}
	}
	return 0, false
}

// Vacuum garbage-collects R_star rows that no valuation references. It does
// not remove states: their presence is semantically invisible and removing
// them would require rewiring edges of every dependent (Rebuild does that
// wholesale).
func (st *Store) Vacuum() (removed int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	if err := st.logOp(wal.Vacuum()); err != nil {
		return 0, err
	}
	for _, ri := range st.rels {
		live := make(map[int64]bool)
		ri.v.Scan(func(_ engine.RowID, row []val.Value) bool {
			live[row[1].AsInt()] = true
			return true
		})
		var doomed []int64
		ri.star.Scan(func(_ engine.RowID, row []val.Value) bool {
			if !live[row[0].AsInt()] {
				doomed = append(doomed, row[0].AsInt())
			}
			return true
		})
		for _, tid := range doomed {
			id, ok := ri.star.LookupPK(val.Int(tid))
			if !ok {
				continue
			}
			if derr := ri.star.Delete(id); derr != nil {
				return removed, derr
			}
			removed++
		}
	}
	return removed, nil
}
