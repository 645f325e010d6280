package store

import (
	"fmt"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
)

// ErrConflict is returned when an insert contradicts explicit beliefs in
// the target world (Γ1/Γ2 on the explicit part, Algorithm 4 line 5).
type ErrConflict struct {
	Stmt   core.Statement
	Reason string
}

func (e *ErrConflict) Error() string {
	return fmt.Sprintf("store: inconsistent insert %s: %s", e.Stmt, e.Reason)
}

// Insert adds one explicit belief statement (BeliefSQL:
// "insert into BELIEF u1 BELIEF u2 ... [not] R values (...)"; an empty path
// is a plain insert). It creates the target world if needed (Algorithm 2)
// and propagates the new belief to dependent worlds (Algorithm 4). The
// whole update is atomic — a batch of one. It reports changed=false when
// the statement was already explicitly present.
func (st *Store) Insert(stmt core.Statement) (changed bool, err error) {
	res, err := st.ApplyBatch([]BatchOp{{Stmt: stmt}})
	return res.Changed == 1, err
}

func signStr(s core.Sign) string {
	if s == core.Pos {
		return SignPos
	}
	return SignNeg
}

// insertTuple implements Algorithm 4 for world y. Lines 3-7 (the explicit
// insert at y) follow the paper verbatim; the dependent-world propagation
// of lines 8-14 is implemented as reconcileKeySlice, which re-derives each
// dependent's implicit beliefs for the affected key from its deepest suffix
// state in ascending depth order. This is equivalent to the paper's
// per-tuple propagation where the latter is well-defined and additionally
// clears implicit beliefs that became stale because the insert overrode
// them deeper in the suffix chain (see package comment).
//
// The propagation is deferred: the affected (relation, world, key) anchor
// is recorded in pend and the batch reconciles every dependent slice once
// at commit time (see flushReconcile). Deferral never changes the
// statement's own outcome — the conflict checks of line 5 read
// only explicit rows, which stay exact between statements, and the
// implicit-row fast paths of lines 3-6 converge to the same state once the
// slice is reconciled.
func (st *Store) insertTuple(ri *relInfo, stmt core.Statement, y int64, pend *pendingReconcile) (bool, error) {
	tid, err := st.starFindOrCreate(ri, stmt.Tuple)
	if err != nil {
		return false, err
	}
	key, _ := val.Coerce(stmt.Tuple.Key(), ri.def.Columns[0].Type)
	s := signStr(stmt.Sign)

	// T1: all tuples of world y with key k (line 2).
	t1 := st.vRowsByWidKey(ri, y, key)

	// Already explicitly present (line 3).
	for _, r := range t1 {
		if r.tid == tid && r.sign == s && r.expl == ExplicitYes {
			return false, nil
		}
	}
	// Already implicitly present: flip to explicit (line 4). World
	// contents do not change anywhere, so no propagation is needed.
	for _, r := range t1 {
		if r.tid == tid && r.sign == s && r.expl == ExplicitNo {
			if err := ri.v.Update(r.rowID, []val.Value{
				val.Int(y), val.Int(tid), key, val.Str(s), val.Str(ExplicitYes),
			}); err != nil {
				return false, err
			}
			st.n++
			return true, nil
		}
	}
	// Consistency against explicit tuples (line 5).
	if reason := explicitConflict(t1, tid, s); reason != "" {
		return false, &ErrConflict{Stmt: stmt, Reason: reason}
	}
	// Delete implicit tuples the new explicit one overrides (line 6).
	for _, r := range t1 {
		if r.expl != ExplicitNo {
			continue
		}
		doomed := false
		if s == SignPos {
			doomed = (r.tid == tid && r.sign == SignNeg) || r.sign == SignPos
		} else {
			doomed = r.tid == tid && r.sign == SignPos
		}
		if doomed {
			if err := ri.v.Delete(r.rowID); err != nil {
				return false, err
			}
		}
	}
	// Insert the explicit tuple (line 7).
	if _, err := ri.v.Insert([]val.Value{
		val.Int(y), val.Int(tid), key, val.Str(s), val.Str(ExplicitYes),
	}); err != nil {
		return false, err
	}
	st.n++
	// Propagate to dependent worlds in ascending depth (lines 8-14), at
	// commit time.
	pend.add(ri, y, key)
	return true, nil
}

// explicitConflict reports why inserting (tid, s) conflicts with the
// explicit rows in the key slice, or "" when it does not.
func explicitConflict(rows []vRow, tid int64, s string) string {
	for _, r := range rows {
		if r.expl != ExplicitYes {
			continue
		}
		if s == SignPos {
			if r.tid == tid && r.sign == SignNeg {
				return "the same tuple is an explicit negative (Γ2)"
			}
			if r.sign == SignPos {
				return "an explicit positive tuple holds the same key (Γ1)"
			}
		} else {
			if r.tid == tid && r.sign == SignPos {
				return "the same tuple is an explicit positive (Γ2)"
			}
		}
	}
	return ""
}

// reconcileKeySlice re-derives world z's implicit beliefs for one external
// key from its deepest suffix state: implicit(z, k) must equal the key-k
// content of world S(z) filtered by consistency against z's explicit key-k
// beliefs (the overriding union of Def. 9/Fig. 9, restricted to one key).
// Callers must reconcile ancestors in the suffix chain first.
func (st *Store) reconcileKeySlice(ri *relInfo, z int64, key val.Value) error {
	parent := st.suffixLinkOf(z)
	var parentRows []vRow
	if parent >= 0 {
		parentRows = st.vRowsByWidKey(ri, parent, key)
	}
	cur := st.vRowsByWidKey(ri, z, key)

	type sig struct {
		tid  int64
		sign string
	}
	explicit := make(map[sig]bool)
	explicitPos := false
	explicitNegByTid := make(map[int64]bool)
	for _, r := range cur {
		if r.expl == ExplicitYes {
			explicit[sig{r.tid, r.sign}] = true
			if r.sign == SignPos {
				explicitPos = true
			} else {
				explicitNegByTid[r.tid] = true
			}
		}
	}

	// Desired implicit rows: parent content consistent with z's explicit
	// beliefs, minus rows z already states explicitly.
	want := make(map[sig]bool)
	for _, p := range parentRows {
		k := sig{p.tid, p.sign}
		if explicit[k] {
			continue
		}
		if p.sign == SignPos {
			if explicitPos || explicitNegByTid[p.tid] {
				continue // Γ1 / Γ2 against explicit beliefs
			}
		} else {
			if explicit[sig{p.tid, SignPos}] {
				continue // Γ2
			}
		}
		want[k] = true
	}
	// Delete implicit rows that are no longer wanted; keep the wanted ones.
	for _, r := range cur {
		if r.expl != ExplicitNo {
			continue
		}
		k := sig{r.tid, r.sign}
		if want[k] {
			delete(want, k)
			continue
		}
		if err := ri.v.Delete(r.rowID); err != nil {
			return err
		}
	}
	// Insert newly wanted implicit rows.
	for k := range want {
		if _, err := ri.v.Insert([]val.Value{
			val.Int(z), val.Int(k.tid), key, val.Str(k.sign), val.Str(ExplicitNo),
		}); err != nil {
			return err
		}
	}
	return nil
}
