package core

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one signed tuple inside a world, tagged with whether it was
// explicitly asserted (the paper's e = 'y') or inherited by the message
// board assumption (e = 'n').
type Entry struct {
	Tuple    Tuple
	Explicit bool
}

// World is a belief world W = (I+, I-). I+ always satisfies the key
// constraint Γ1 and I+ ∩ I- = ∅ (Γ2); the constructors enforce both, so a
// World is consistent by construction (Prop. 5). I- may contain several
// alternatives with the same key.
type World struct {
	pos      map[string]Entry // tuple ID -> entry
	neg      map[string]Entry
	posByKey map[string]string // KeyID -> tuple ID of the unique positive
}

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{
		pos:      make(map[string]Entry),
		neg:      make(map[string]Entry),
		posByKey: make(map[string]string),
	}
}

// Len returns the number of stated (positive plus negative) tuples.
func (w *World) Len() int { return len(w.pos) + len(w.neg) }

// ErrConflict reports a violation of Γ1 or Γ2 against explicit beliefs.
type ErrConflict struct {
	Stmt   string // what was being added
	Reason string
}

func (e *ErrConflict) Error() string {
	return fmt.Sprintf("core: inconsistent belief %s: %s", e.Stmt, e.Reason)
}

// CanAddPos reports whether t can join I+ without violating Γ1/Γ2.
// It returns a non-nil reason when it cannot.
func (w *World) CanAddPos(t Tuple) error {
	id := t.ID()
	if _, stated := w.neg[id]; stated {
		return &ErrConflict{Stmt: t.String() + "+", Reason: "the same tuple is a stated negative (Γ2)"}
	}
	if other, ok := w.posByKey[t.KeyID()]; ok && other != id {
		return &ErrConflict{Stmt: t.String() + "+", Reason: "another positive tuple holds the same key (Γ1)"}
	}
	return nil
}

// CanAddNeg reports whether t can join I- without violating Γ2.
func (w *World) CanAddNeg(t Tuple) error {
	if _, ok := w.pos[t.ID()]; ok {
		return &ErrConflict{Stmt: t.String() + "-", Reason: "the same tuple is a positive belief (Γ2)"}
	}
	return nil
}

// Add inserts a signed tuple, enforcing consistency. Adding an entry that
// is already present keeps the stronger explicitness flag and reports
// changed=false when nothing changed.
func (w *World) Add(t Tuple, s Sign, explicit bool) (changed bool, err error) {
	id := t.ID()
	if s == Pos {
		if err := w.CanAddPos(t); err != nil {
			return false, err
		}
		if cur, ok := w.pos[id]; ok {
			if cur.Explicit || !explicit {
				return false, nil
			}
			w.pos[id] = Entry{Tuple: t, Explicit: true}
			return true, nil
		}
		w.pos[id] = Entry{Tuple: t, Explicit: explicit}
		w.posByKey[t.KeyID()] = id
		return true, nil
	}
	if err := w.CanAddNeg(t); err != nil {
		return false, err
	}
	if cur, ok := w.neg[id]; ok {
		if cur.Explicit || !explicit {
			return false, nil
		}
		w.neg[id] = Entry{Tuple: t, Explicit: true}
		return true, nil
	}
	w.neg[id] = Entry{Tuple: t, Explicit: explicit}
	return true, nil
}

// Remove deletes a signed tuple; it reports whether it was present.
func (w *World) Remove(t Tuple, s Sign) bool {
	id := t.ID()
	if s == Pos {
		if _, ok := w.pos[id]; !ok {
			return false
		}
		delete(w.pos, id)
		delete(w.posByKey, t.KeyID())
		return true
	}
	if _, ok := w.neg[id]; !ok {
		return false
	}
	delete(w.neg, id)
	return true
}

// HasPos reports whether t is a positive belief (t ∈ I+, Prop. 7).
func (w *World) HasPos(t Tuple) bool {
	_, ok := w.pos[t.ID()]
	return ok
}

// HasStatedNeg reports whether t is a stated negative (t ∈ I-).
func (w *World) HasStatedNeg(t Tuple) bool {
	_, ok := w.neg[t.ID()]
	return ok
}

// HasNeg reports whether t is a negative belief per Prop. 7: stated
// negative, or unstated negative because a different positive tuple holds
// the same key.
func (w *World) HasNeg(t Tuple) bool {
	if w.HasStatedNeg(t) {
		return true
	}
	if other, ok := w.posByKey[t.KeyID()]; ok && other != t.ID() {
		return true
	}
	return false
}

// Entry returns the entry for a signed tuple, if stated.
func (w *World) Entry(t Tuple, s Sign) (Entry, bool) {
	if s == Pos {
		e, ok := w.pos[t.ID()]
		return e, ok
	}
	e, ok := w.neg[t.ID()]
	return e, ok
}

// Entries returns all stated entries with the given sign, sorted by tuple
// identity for deterministic iteration.
func (w *World) Entries(s Sign) []Entry {
	m := w.pos
	if s == Neg {
		m = w.neg
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Entry, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// Clone deep-copies the world.
func (w *World) Clone() *World {
	c := NewWorld()
	for id, e := range w.pos {
		c.pos[id] = e
		c.posByKey[e.Tuple.KeyID()] = id
	}
	for id, e := range w.neg {
		c.neg[id] = e
	}
	return c
}

// InheritFrom applies the overriding union of the message board assumption
// (Def. 9 / Fig. 9): every statement of parent that is consistent with w's
// current content joins w as an implicit entry. Parent is a consistent
// world, so its entries cannot conflict with each other; only conflicts
// against w's existing entries suppress inheritance.
func (w *World) InheritFrom(parent *World) {
	for _, e := range parent.pos {
		if w.CanAddPos(e.Tuple) == nil {
			w.Add(e.Tuple, Pos, false)
		}
	}
	for _, e := range parent.neg {
		if w.CanAddNeg(e.Tuple) == nil {
			w.Add(e.Tuple, Neg, false)
		}
	}
}

// Equal reports whether two worlds state exactly the same signed tuples
// (ignoring explicitness flags).
func (w *World) Equal(o *World) bool {
	if len(w.pos) != len(o.pos) || len(w.neg) != len(o.neg) {
		return false
	}
	for id := range w.pos {
		if _, ok := o.pos[id]; !ok {
			return false
		}
	}
	for id := range w.neg {
		if _, ok := o.neg[id]; !ok {
			return false
		}
	}
	return true
}

// EqualWithFlags is Equal but also compares explicitness flags.
func (w *World) EqualWithFlags(o *World) bool {
	if len(w.pos) != len(o.pos) || len(w.neg) != len(o.neg) {
		return false
	}
	for id, e := range w.pos {
		oe, ok := o.pos[id]
		if !ok || oe.Explicit != e.Explicit {
			return false
		}
	}
	for id, e := range w.neg {
		oe, ok := o.neg[id]
		if !ok || oe.Explicit != e.Explicit {
			return false
		}
	}
	return true
}

// String renders the world like "{s11+, s12-}" using tuple identities.
func (w *World) String() string {
	var parts []string
	for _, e := range w.Entries(Pos) {
		parts = append(parts, e.Tuple.String()+"+")
	}
	for _, e := range w.Entries(Neg) {
		parts = append(parts, e.Tuple.String()+"-")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
