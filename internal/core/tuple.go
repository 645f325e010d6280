// Package core implements the paper's belief-database model (Sect. 3):
// ground tuples, belief paths, signed belief statements, belief worlds
// W = (I+, I-) with the consistency constraints Γ1/Γ2 (Def. 1-5, Prop. 5/7),
// the message-board closure D̄ (Def. 9/10) computed by overriding unions
// along suffix chains (Fig. 9 of the appendix), entailment (Def. 6/12), and
// a reference evaluator for belief conjunctive queries (Def. 13/14).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"beliefdb/internal/val"
)

// Sign marks a belief statement as positive or negative.
type Sign int8

// The two signs of belief statements.
const (
	Pos Sign = 1
	Neg Sign = -1
)

// String renders the sign the way the paper writes it ("+" / "-").
func (s Sign) String() string {
	if s == Pos {
		return "+"
	}
	return "-"
}

// Tuple is a ground tuple of an external relation. Vals[0] is the external
// key attribute (the paper's key_i). Two tuples are the same iff relation
// and all attribute values agree; conflicting alternatives share the key but
// differ elsewhere.
type Tuple struct {
	Rel  string
	Vals []val.Value
}

// NewTuple builds a tuple.
func NewTuple(rel string, vals ...val.Value) Tuple {
	return Tuple{Rel: rel, Vals: vals}
}

// Key returns the external key value (the first attribute).
func (t Tuple) Key() val.Value {
	if len(t.Vals) == 0 {
		return val.Null()
	}
	return t.Vals[0]
}

// ID returns the canonical identity of the tuple (relation + all values).
func (t Tuple) ID() string {
	return t.Rel + "(" + val.RowKey(t.Vals) + ")"
}

// KeyID returns the identity of the tuple's (relation, key) pair, the unit
// over which the key constraint Γ1 and unstated negatives are defined.
func (t Tuple) KeyID() string {
	return t.Rel + "[" + t.Key().Key() + "]"
}

// String renders the tuple like "Sightings('s1','Carol',...)".
func (t Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.SQL()
	}
	return t.Rel + "(" + strings.Join(parts, ",") + ")"
}

// Statement is one belief annotation w t^s: the user chain w believes the
// tuple t holds (s = Pos) or does not hold (s = Neg). An empty path is a
// plain database insert (root world).
type Statement struct {
	Path  Path
	Sign  Sign
	Tuple Tuple
}

// String renders the statement in the paper's modal notation.
func (st Statement) String() string {
	return fmt.Sprintf("%s%s%s", st.Path.Modal(), st.Tuple, st.Sign)
}

// StatementLess is the canonical statement order: shallower paths first,
// then path key, tuple identity, and positive before negative. Loading
// statements in this order creates every world after its suffixes.
func StatementLess(a, b Statement) bool {
	if !a.Path.Equal(b.Path) {
		if len(a.Path) != len(b.Path) {
			return len(a.Path) < len(b.Path)
		}
		return a.Path.Key() < b.Path.Key()
	}
	if a.Tuple.ID() != b.Tuple.ID() {
		return a.Tuple.ID() < b.Tuple.ID()
	}
	return a.Sign > b.Sign
}

// SortStatements sorts stmts into the canonical order of StatementLess. It
// renders each statement's path key and tuple identity once, where
// StatementLess renders both on every comparison; paths of one length are
// equal exactly when their keys are.
func SortStatements(stmts []Statement) {
	type keyed struct {
		path, tuple string
		s           Statement
	}
	ks := make([]keyed, len(stmts))
	for i, s := range stmts {
		ks[i] = keyed{s.Path.Key(), s.Tuple.ID(), s}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(
			cmp.Compare(len(a.s.Path), len(b.s.Path)),
			strings.Compare(a.path, b.path),
			strings.Compare(a.tuple, b.tuple),
			cmp.Compare(b.s.Sign, a.s.Sign),
		)
	})
	for i, k := range ks {
		stmts[i] = k.s
	}
}
