package bsql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// Translator compiles BeliefSQL queries into plain SQL over the internal
// schema per Algorithm 1 and routes DML to the store's update algorithms.
type Translator struct {
	st *store.Store
}

// NewTranslator returns a translator bound to a store.
func NewTranslator(st *store.Store) *Translator { return &Translator{st: st} }

// refKind distinguishes the three kinds of FROM items.
type refKind int

const (
	plainRef refKind = iota
	posRef
	negRef
)

// fromBinding is the resolved planning state of one FROM item.
type fromBinding struct {
	ref   BeliefRef
	kind  refKind
	cols  []string         // column names of the relation (external schema)
	vName string           // V-table alias (belief refs)
	eName []string         // E-table aliases, one per path element
	bound []sqlparser.Expr // negRef: what each attribute is equated to
}

// translation is the state of one SELECT's translation, against pv.
type translation struct {
	pv           store.Pinned
	bindings     []fromBinding
	nextV, nextE int // last generated _v and _e alias numbers
}

// Literals every translation uses, boxed once.
var (
	zeroLit   sqlparser.Expr = sqlparser.Literal{Val: val.Int(0)}
	posLit    sqlparser.Expr = sqlparser.Literal{Val: val.Str("+")}
	negLit    sqlparser.Expr = sqlparser.Literal{Val: val.Str("-")}
	selectOne                = []sqlparser.SelectItem{{Expr: sqlparser.Literal{Val: val.Int(1)}}}
)

// TranslateSelect compiles a BeliefSQL SELECT into SQL text over the
// internal schema: the rendering of the AST that ExecStmt runs.
func (tr *Translator) TranslateSelect(sel Select) (string, error) {
	q, err := tr.translate(tr.st.Pin(), sel)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// translate compiles a BeliefSQL SELECT into a SELECT over the internal
// schema, resolving users and tables against pv. Per positive belief item
// the output joins an E-chain from the root (E*(0, w̄, z)), the relation's
// V table (s='+') and its R* table. A negated item selects nothing and has
// every attribute bound, so it is a filter: one correlated EXISTS over its
// own E-chain, V and R* tables holding the stated/unstated disjunction of
// Algorithm 1 step 5, which the engine runs as a semi-join through V's
// (wid, key) index. Belief-path valuations respect Û* (adjacent believers
// differ), and the result is DISTINCT (BCQ answers are sets). AND chains
// are left-deep, as the parser builds them.
func (tr *Translator) translate(pv store.Pinned, sel Select) (q sqlparser.Select, err error) {
	x := &translation{pv: pv, bindings: make([]fromBinding, len(sel.From))}
	var buf [16]sqlparser.Expr
	conjuncts := splitConjuncts(sel.Where, buf[:0])
	ntables, nconds := 0, len(conjuncts)
	for i, ref := range sel.From {
		x.bindings[i].ref = ref
		ntables += len(ref.Path) + 2
		nconds += 3*len(ref.Path) + 3
	}
	q.From = make([]sqlparser.TableRef, 0, ntables)
	conds := make([]sqlparser.Expr, 0, nconds)
	for i, ref := range sel.From {
		b := &x.bindings[i]
		if rel, ok := tr.st.Relation(ref.Table); ok {
			b.cols = make([]string, len(rel.Columns))
			for j, c := range rel.Columns {
				b.cols[j] = c.Name
			}
			if b.kind = posRef; ref.Negated {
				b.kind = negRef
				b.bound = make([]sqlparser.Expr, len(b.cols))
			}
			b.vName = x.fresh("_v", &x.nextV)
			for range ref.Path {
				b.eName = append(b.eName, x.fresh("_e", &x.nextE))
			}
		} else if t := pv.Catalog().Table(ref.Table); t != nil && !strings.Contains(ref.Table, "_") {
			if len(ref.Path) > 0 || ref.Negated {
				return q, fmt.Errorf("bsql: %s is not a belief relation; BELIEF/not prefixes do not apply", ref.Table)
			}
			b.kind = plainRef
			for _, c := range t.Schema().Columns {
				b.cols = append(b.cols, c.Name)
			}
		} else {
			return q, fmt.Errorf("bsql: unknown relation %q", ref.Table)
		}
	}

	// Plain tables, and per positive item its E-chain, V and R* joins.
	for i := range x.bindings {
		b := &x.bindings[i]
		switch b.kind {
		case plainRef:
			q.From = append(q.From, sqlparser.TableRef{Table: b.ref.Table, Alias: b.ref.Name()})
		case posRef:
			wid, err := x.chain(b, &q.From, &conds)
			if err != nil {
				return q, err
			}
			q.From = append(q.From, sqlparser.TableRef{Table: b.ref.Table + "_v", Alias: b.vName},
				sqlparser.TableRef{Table: b.ref.Table + "_star", Alias: b.ref.Name()})
			conds = append(conds, eq(col(b.vName, "wid"), wid), eq(col(b.vName, "tid"), col(b.ref.Name(), "tid")),
				eq(col(b.vName, "s"), posLit))
		}
	}

	// Split the WHERE clause into conjuncts; extract negative-item
	// attribute bindings (Algorithm 1 step 5).
	var resBuf [16]sqlparser.Expr
	residual := resBuf[:0]
	for _, conj := range conjuncts {
		be, ok := conj.(sqlparser.BinaryExpr)
		if ok && be.Op == "=" {
			var nb *fromBinding
			var c int
			var otherSide sqlparser.Expr
			if l, isCol := be.L.(sqlparser.ColumnRef); isCol {
				if b, j, err := x.resolve(l); err == nil && b.kind == negRef {
					nb, c, otherSide = b, j, be.R
				}
			}
			if r, isCol := be.R.(sqlparser.ColumnRef); nb == nil && isCol {
				if b, j, err := x.resolve(r); err == nil && b.kind == negRef {
					nb, c, otherSide = b, j, be.L
				}
			}
			if nb != nil {
				if hit, err := x.negated(otherSide); err != nil {
					return q, err
				} else if hit != nil {
					return q, fmt.Errorf("bsql: unsafe query: %s equates two negated items", conj.String())
				}
				if prev := nb.bound[c]; prev != nil {
					// A second binding for the same attribute becomes an
					// equality between the two binding expressions.
					residual = append(residual, eq(prev, otherSide))
				} else {
					nb.bound[c] = otherSide
				}
				continue
			}
		}
		// Any other conjunct must not mention a negated item.
		if hit, err := x.negated(conj); err != nil {
			return q, err
		} else if hit != nil {
			return q, fmt.Errorf("bsql: unsafe query: negated item %s may only appear in attribute equalities (got %s)",
				hit.ref.Name(), conj.String())
		}
		residual = append(residual, conj)
	}

	// Emit one EXISTS per negative item (Algorithm 1 step 5 as a semi-join):
	// some valuation of the item's world holds the bound key and is either
	// the bound tuple stated negatively or a different tuple stated
	// positively (an unstated negative, Prop. 7).
	for i := range x.bindings {
		b := &x.bindings[i]
		if b.kind != negRef {
			continue
		}
		for j, c := range b.cols {
			if b.bound[j] == nil {
				return q, fmt.Errorf("bsql: unsafe query: attribute %s of negated item %s is unbound; every attribute must be equated to a positive binding or constant",
					c, b.ref.Name())
			}
		}
		sub := sqlparser.Select{Items: selectOne, Limit: -1}
		subConds := make([]sqlparser.Expr, 0, 3*len(b.ref.Path)+4)
		wid, err := x.chain(b, &sub.From, &subConds)
		if err != nil {
			return q, err
		}
		sub.From = append(sub.From, sqlparser.TableRef{Table: b.ref.Table + "_v", Alias: b.vName})
		subConds = append(subConds, eq(col(b.vName, "wid"), wid))
		key, err := x.qualify(b.bound[0])
		if err != nil {
			return q, err
		}
		if _, isCol := key.(sqlparser.ColumnRef); isCol {
			// A column equality keys the (wid, key) probe, and probes match
			// by value identity, NULL included.
			subConds = append(subConds, eq(col(b.vName, "key"), key))
		} else {
			subConds = append(subConds, sameValue(col(b.vName, "key"), key))
		}
		if len(b.cols) == 1 {
			subConds = append(subConds, eq(col(b.vName, "s"), negLit))
		} else {
			n := b.ref.Name()
			sub.From = append(sub.From, sqlparser.TableRef{Table: b.ref.Table + "_star", Alias: n})
			subConds = append(subConds, eq(col(n, "tid"), col(b.vName, "tid")))
			same := append(make([]sqlparser.Expr, 0, len(b.cols)), eq(col(b.vName, "s"), negLit))
			for j, c := range b.cols[1:] {
				bound, err := x.qualify(b.bound[j+1])
				if err != nil {
					return q, err
				}
				same = append(same, sameValue(col(n, c), bound))
			}
			subConds = append(subConds, sqlparser.BinaryExpr{Op: "OR", L: conjoin(same),
				R: sqlparser.BinaryExpr{Op: "AND", L: eq(col(b.vName, "s"), posLit),
					R: sqlparser.UnaryExpr{Op: "NOT", X: conjoin(same[1:])}}})
		}
		sub.Where = conjoin(subConds)
		conds = append(conds, sqlparser.Exists{Query: sub})
	}
	q.Where = conjoin(append(conds, residual...))

	// Select list: validate it does not touch negated items. Without a star
	// the items pass through as they are.
	star := slices.ContainsFunc(sel.Items, func(it sqlparser.SelectItem) bool { return it.Star || it.TableStar != "" })
	if !star {
		q.Items = sel.Items
	}
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for i := range x.bindings {
				b := &x.bindings[i]
				if b.kind == negRef {
					return q, fmt.Errorf("bsql: SELECT * cannot include negated item %s", b.ref.Name())
				}
				q.Items = b.appendCols(q.Items)
			}
		case it.TableStar != "":
			b := x.binding(it.TableStar)
			if b == nil {
				return q, fmt.Errorf("bsql: unknown binding %q", it.TableStar)
			}
			if b.kind == negRef {
				return q, fmt.Errorf("bsql: SELECT %s.* references a negated item", it.TableStar)
			}
			q.Items = b.appendCols(q.Items)
		default:
			if hit, err := x.negated(it.Expr); err != nil {
				return q, err
			} else if hit != nil {
				return q, fmt.Errorf("bsql: unsafe query: select item %s references negated item %s",
					it.Expr.String(), hit.ref.Name())
			}
			if star {
				q.Items = append(q.Items, it)
			}
		}
	}

	// Aggregated queries group instead of deduplicating; plain BCQ answers
	// are sets, hence DISTINCT.
	q.Distinct = len(sel.GroupBy) == 0 && !slices.ContainsFunc(sel.Items, func(it sqlparser.SelectItem) bool {
		return it.Expr != nil && query.ContainsAggregate(it.Expr)
	})
	for _, g := range sel.GroupBy {
		if hit, err := x.negated(g); err != nil {
			return q, err
		} else if hit != nil {
			return q, fmt.Errorf("bsql: GROUP BY references negated item %s", hit.ref.Name())
		}
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may reference select aliases, which resolve is unaware
		// of; only reject resolvable negated references.
		if hit, err := x.negated(o.Expr); err == nil && hit != nil {
			return q, fmt.Errorf("bsql: ORDER BY references negated item %s", hit.ref.Name())
		}
	}
	q.GroupBy, q.OrderBy, q.Limit = sel.GroupBy, sel.OrderBy, sel.Limit
	return q, nil
}

// fresh returns the next alias name with prefix, skipping the FROM list's
// binding names; *last is the number the prefix last used.
func (x *translation) fresh(prefix string, last *int) string {
	for {
		*last++
		name := prefix + strconv.Itoa(*last)
		if x.binding(name) == nil {
			return name
		}
	}
}

// binding returns the FROM item bound to name, or nil; of two items with
// one name, the later.
func (x *translation) binding(name string) *fromBinding {
	for i := len(x.bindings) - 1; i >= 0; i-- {
		if x.bindings[i].ref.Name() == name {
			return &x.bindings[i]
		}
	}
	return nil
}

// appendCols appends the binding's columns to a select list.
func (b *fromBinding) appendCols(items []sqlparser.SelectItem) []sqlparser.SelectItem {
	for _, c := range b.cols {
		items = append(items, sqlparser.SelectItem{Expr: col(b.ref.Name(), c)})
	}
	return items
}

// resolve finds the binding and column position a column reference names.
func (x *translation) resolve(cr sqlparser.ColumnRef) (*fromBinding, int, error) {
	if cr.Table != "" {
		b := x.binding(cr.Table)
		if b == nil {
			return nil, 0, fmt.Errorf("bsql: unknown binding %q", cr.Table)
		}
		for j, c := range b.cols {
			if c == cr.Column {
				return b, j, nil
			}
		}
		return nil, 0, fmt.Errorf("bsql: no column %q in %s", cr.Column, cr.Table)
	}
	var found *fromBinding
	var at int
	for i := range x.bindings {
		for j, c := range x.bindings[i].cols {
			if c == cr.Column {
				if found != nil {
					return nil, 0, fmt.Errorf("bsql: ambiguous column %q", cr.Column)
				}
				found, at = &x.bindings[i], j
			}
		}
	}
	if found == nil {
		return nil, 0, fmt.Errorf("bsql: unknown column %q", cr.Column)
	}
	return found, at, nil
}

// qualify rewrites the column references of a negated item's binding
// expression to binding.column form: inside the item's subquery an
// unqualified name would resolve against the subquery's tables first.
func (x *translation) qualify(e sqlparser.Expr) (sqlparser.Expr, error) {
	switch ex := e.(type) {
	case sqlparser.ColumnRef:
		b, j, err := x.resolve(ex)
		if err != nil {
			return nil, err
		}
		return col(b.ref.Name(), b.cols[j]), nil
	case sqlparser.BinaryExpr:
		l, err := x.qualify(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := x.qualify(ex.R)
		if err != nil {
			return nil, err
		}
		return sqlparser.BinaryExpr{Op: ex.Op, L: l, R: r}, nil
	case sqlparser.UnaryExpr:
		x, err := x.qualify(ex.X)
		if err != nil {
			return nil, err
		}
		return sqlparser.UnaryExpr{Op: ex.Op, X: x}, nil
	case sqlparser.Literal:
		return ex, nil
	}
	return nil, fmt.Errorf("bsql: a negated item's attribute cannot be bound to %s", e)
}

// chain appends the E-chain of a belief item (Algorithm 1 step 2) to the
// given FROM and WHERE lists and returns the wid expression of the world
// at its end.
func (x *translation) chain(b *fromBinding, tables *[]sqlparser.TableRef, conds *[]sqlparser.Expr) (sqlparser.Expr, error) {
	prevWid := zeroLit
	for j, elem := range b.ref.Path {
		ea := b.eName[j]
		*tables = append(*tables, sqlparser.TableRef{Table: "_e", Alias: ea})
		*conds = append(*conds, eq(col(ea, "wid1"), prevWid))
		if elem.IsRef {
			pb, c, err := x.resolve(elem.Ref)
			if err != nil {
				return nil, err
			}
			if pb.kind != plainRef {
				return nil, fmt.Errorf("bsql: BELIEF %s must reference a plain table column", elem.Ref)
			}
			*conds = append(*conds, eq(col(ea, "uid"), col(pb.ref.Name(), pb.cols[c])))
		} else {
			uid, ok := x.pv.UserID(elem.Literal)
			if !ok {
				return nil, fmt.Errorf("bsql: unknown user %q", elem.Literal)
			}
			*conds = append(*conds, eq(col(ea, "uid"), sqlparser.Literal{Val: val.Int(int64(uid))}))
		}
		// Û*: adjacent believers must differ. Constant pairs are checked
		// statically; anything else becomes a condition.
		if j > 0 {
			if prev := b.ref.Path[j-1]; !prev.IsRef && !elem.IsRef {
				if prev.Literal == elem.Literal {
					return nil, fmt.Errorf("bsql: belief path repeats user %q in adjacent positions", elem.Literal)
				}
			} else {
				*conds = append(*conds, sqlparser.BinaryExpr{Op: "<>", L: col(ea, "uid"), R: col(b.eName[j-1], "uid")})
			}
		}
		prevWid = col(ea, "wid2")
	}
	return prevWid, nil
}

// negated returns the negated item an expression mentions, if any; of
// several, the last.
func (x *translation) negated(e sqlparser.Expr) (hit *fromBinding, err error) {
	var args []sqlparser.Expr
	switch ex := e.(type) {
	case sqlparser.ColumnRef:
		if hit, _, err = x.resolve(ex); err != nil || hit.kind != negRef {
			return nil, err
		}
		return hit, nil
	case sqlparser.BinaryExpr:
		if hit, err = x.negated(ex.L); err != nil {
			return nil, err
		}
		if r, err := x.negated(ex.R); r != nil || err != nil {
			return r, err
		}
		return hit, nil
	case sqlparser.UnaryExpr:
		return x.negated(ex.X)
	case sqlparser.IsNull:
		return x.negated(ex.X)
	case sqlparser.FuncCall:
		args = ex.Args
	case sqlparser.Exists:
		return nil, fmt.Errorf("bsql: EXISTS is not part of BeliefSQL; negate a belief item with NOT")
	}
	for _, a := range args {
		b, err := x.negated(a)
		if err != nil {
			return nil, err
		}
		if b != nil {
			hit = b
		}
	}
	return hit, nil
}

func col(table, column string) sqlparser.Expr {
	return sqlparser.ColumnRef{Table: table, Column: column}
}

func eq(l, r sqlparser.Expr) sqlparser.Expr { return sqlparser.BinaryExpr{Op: "=", L: l, R: r} }

// conjoin ANDs conds left-deep; nil when there are none.
func conjoin(conds []sqlparser.Expr) sqlparser.Expr {
	var w sqlparser.Expr
	for _, c := range conds {
		if w == nil {
			w = c
		} else {
			w = sqlparser.BinaryExpr{Op: "AND", L: w, R: c}
		}
	}
	return w
}

// sameValue is "c holds the value of e" as tuple identity, the comparison
// core.Eval applies to a negated atom: NULL equals NULL and differs from
// every constant, where a bare '=' would not be satisfied. The engine's
// comparisons are two-valued (NULL operands yield false), so NOT over a
// conjunction of these is "some attribute differs".
func sameValue(c, e sqlparser.Expr) sqlparser.Expr {
	if lit, ok := e.(sqlparser.Literal); ok {
		if lit.Val.IsNull() {
			return sqlparser.IsNull{X: c}
		}
		return eq(c, e)
	}
	return sqlparser.BinaryExpr{Op: "OR", L: eq(c, e),
		R: sqlparser.BinaryExpr{Op: "AND", L: sqlparser.IsNull{X: c}, R: sqlparser.IsNull{X: e}}}
}

// splitConjuncts appends the conjuncts of e's top-level ANDs to out.
func splitConjuncts(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return splitConjuncts(be.R, splitConjuncts(be.L, out))
	}
	if e == nil {
		return out
	}
	return append(out, e)
}
