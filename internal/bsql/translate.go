package bsql

import (
	"fmt"
	"strings"

	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
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
	cols  []string // column names of the relation (external schema)
	rel   store.Relation
	vName string   // V-table alias (belief refs)
	eName []string // E-table aliases, one per path element
}

// TranslateSelect compiles a BeliefSQL SELECT into SQL text over the
// internal schema. Per positive belief item the output joins an E-chain
// from the root (E*(0, w̄, z)), the relation's V table (s='+') and its R*
// table. A negated item selects nothing and has every attribute bound, so
// it is a filter: one correlated EXISTS over its own E-chain, V and R*
// tables holding the stated/unstated disjunction of Algorithm 1 step 5,
// which the engine runs as a semi-join through V's (wid, key) index.
// Belief-path valuations respect Û* (adjacent believers differ), and the
// result is DISTINCT (BCQ answers are sets).
func (tr *Translator) TranslateSelect(sel Select) (string, error) {
	cat := tr.st.Snapshot()
	used := make(map[string]bool)
	bindings := make([]*fromBinding, 0, len(sel.From))
	byName := make(map[string]*fromBinding)
	for _, ref := range sel.From {
		used[ref.Name()] = true
	}
	fresh := func(prefix string) string {
		for i := 1; ; i++ {
			name := fmt.Sprintf("%s%d", prefix, i)
			if !used[name] {
				used[name] = true
				return name
			}
		}
	}

	for _, ref := range sel.From {
		b := &fromBinding{ref: ref}
		if rel, ok := tr.st.Relation(ref.Table); ok {
			b.rel = rel
			for _, c := range rel.Columns {
				b.cols = append(b.cols, c.Name)
			}
			if ref.Negated {
				b.kind = negRef
			} else {
				b.kind = posRef
			}
			b.vName = fresh("_v")
			for range ref.Path {
				b.eName = append(b.eName, fresh("_e"))
			}
		} else if t := cat.Table(ref.Table); t != nil && !strings.Contains(ref.Table, "_") {
			if len(ref.Path) > 0 || ref.Negated {
				return "", fmt.Errorf("bsql: %s is not a belief relation; BELIEF/not prefixes do not apply", ref.Table)
			}
			b.kind = plainRef
			for _, c := range t.Schema().Columns {
				b.cols = append(b.cols, c.Name)
			}
		} else {
			return "", fmt.Errorf("bsql: unknown relation %q", ref.Table)
		}
		bindings = append(bindings, b)
		byName[ref.Name()] = b
	}

	resolve := func(cr sqlparser.ColumnRef) (*fromBinding, string, error) {
		if cr.Table != "" {
			b, ok := byName[cr.Table]
			if !ok {
				return nil, "", fmt.Errorf("bsql: unknown binding %q", cr.Table)
			}
			for _, c := range b.cols {
				if c == cr.Column {
					return b, c, nil
				}
			}
			return nil, "", fmt.Errorf("bsql: no column %q in %s", cr.Column, cr.Table)
		}
		var found *fromBinding
		var col string
		for _, b := range bindings {
			for _, c := range b.cols {
				if c == cr.Column {
					if found != nil {
						return nil, "", fmt.Errorf("bsql: ambiguous column %q", cr.Column)
					}
					found, col = b, c
				}
			}
		}
		if found == nil {
			return nil, "", fmt.Errorf("bsql: unknown column %q", cr.Column)
		}
		return found, col, nil
	}

	// qualify rewrites the column references of a negated item's binding
	// expression to binding.column form: inside the item's subquery an
	// unqualified name would resolve against the subquery's tables first.
	var qualify func(e sqlparser.Expr) (sqlparser.Expr, error)
	qualify = func(e sqlparser.Expr) (sqlparser.Expr, error) {
		switch ex := e.(type) {
		case sqlparser.ColumnRef:
			b, col, err := resolve(ex)
			if err != nil {
				return nil, err
			}
			return sqlparser.ColumnRef{Table: b.ref.Name(), Column: col}, nil
		case sqlparser.BinaryExpr:
			l, err := qualify(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := qualify(ex.R)
			if err != nil {
				return nil, err
			}
			return sqlparser.BinaryExpr{Op: ex.Op, L: l, R: r}, nil
		case sqlparser.UnaryExpr:
			x, err := qualify(ex.X)
			if err != nil {
				return nil, err
			}
			return sqlparser.UnaryExpr{Op: ex.Op, X: x}, nil
		case sqlparser.Literal:
			return ex, nil
		}
		return nil, fmt.Errorf("bsql: a negated item's attribute cannot be bound to %s", e)
	}

	// chain appends the E-chain of a belief item (Algorithm 1 step 2) to
	// the given FROM and WHERE lists and returns the wid expression of the
	// world at its end.
	chain := func(b *fromBinding, tables, conds *[]string) (string, error) {
		prevWid := "0"
		for j, elem := range b.ref.Path {
			ea := b.eName[j]
			*tables = append(*tables, "_e "+ea)
			*conds = append(*conds, fmt.Sprintf("%s.wid1 = %s", ea, prevWid))
			if elem.IsRef {
				pb, col, err := resolve(elem.Ref)
				if err != nil {
					return "", err
				}
				if pb.kind != plainRef {
					return "", fmt.Errorf("bsql: BELIEF %s must reference a plain table column", elem.Ref)
				}
				*conds = append(*conds, fmt.Sprintf("%s.uid = %s.%s", ea, pb.ref.Name(), col))
			} else {
				uid, ok := tr.st.UserID(elem.Literal)
				if !ok {
					return "", fmt.Errorf("bsql: unknown user %q", elem.Literal)
				}
				*conds = append(*conds, fmt.Sprintf("%s.uid = %d", ea, uid))
			}
			// Û*: adjacent believers must differ. Constant pairs are
			// checked statically; anything else becomes a condition.
			if j > 0 {
				prev := b.ref.Path[j-1]
				if !prev.IsRef && !elem.IsRef {
					u1, _ := tr.st.UserID(prev.Literal)
					u2, _ := tr.st.UserID(elem.Literal)
					if u1 == u2 {
						return "", fmt.Errorf("bsql: belief path repeats user %q in adjacent positions", elem.Literal)
					}
				} else {
					*conds = append(*conds, fmt.Sprintf("%s.uid <> %s.uid", ea, b.eName[j-1]))
				}
			}
			prevWid = ea + ".wid2"
		}
		return prevWid, nil
	}

	var tables []string
	var conds []string

	// Plain tables, and per positive item its E-chain, V and R* joins.
	for _, b := range bindings {
		switch b.kind {
		case plainRef:
			tables = append(tables, b.ref.Table+" "+b.ref.Name())
		case posRef:
			wid, err := chain(b, &tables, &conds)
			if err != nil {
				return "", err
			}
			tables = append(tables, b.ref.Table+"_v "+b.vName, b.ref.Table+"_star "+b.ref.Name())
			conds = append(conds,
				fmt.Sprintf("%s.wid = %s", b.vName, wid),
				fmt.Sprintf("%s.tid = %s.tid", b.vName, b.ref.Name()),
				fmt.Sprintf("%s.s = '+'", b.vName))
		}
	}

	// Split the WHERE clause into conjuncts; extract negative-item
	// attribute bindings (Algorithm 1 step 5).
	conjuncts := splitConjuncts(sel.Where)
	negBindings := make(map[*fromBinding]map[string]sqlparser.Expr)
	var residual []sqlparser.Expr
	for _, b := range bindings {
		if b.kind == negRef {
			negBindings[b] = make(map[string]sqlparser.Expr)
		}
	}
	refersToNeg := func(e sqlparser.Expr) (*fromBinding, error) {
		var hit *fromBinding
		var walk func(x sqlparser.Expr) error
		walk = func(x sqlparser.Expr) error {
			switch ex := x.(type) {
			case sqlparser.ColumnRef:
				b, _, err := resolve(ex)
				if err != nil {
					return err
				}
				if b.kind == negRef {
					hit = b
				}
			case sqlparser.BinaryExpr:
				if err := walk(ex.L); err != nil {
					return err
				}
				return walk(ex.R)
			case sqlparser.UnaryExpr:
				return walk(ex.X)
			case sqlparser.IsNull:
				return walk(ex.X)
			case sqlparser.FuncCall:
				for _, a := range ex.Args {
					if err := walk(a); err != nil {
						return err
					}
				}
			case sqlparser.Exists:
				return fmt.Errorf("bsql: EXISTS is not part of BeliefSQL; negate a belief item with NOT")
			}
			return nil
		}
		if err := walk(e); err != nil {
			return nil, err
		}
		return hit, nil
	}

	for _, conj := range conjuncts {
		be, ok := conj.(sqlparser.BinaryExpr)
		if ok && be.Op == "=" {
			l, lIsCol := be.L.(sqlparser.ColumnRef)
			r, rIsCol := be.R.(sqlparser.ColumnRef)
			var negSide sqlparser.ColumnRef
			var otherSide sqlparser.Expr
			matched := false
			if lIsCol {
				if b, _, err := resolve(l); err == nil && b.kind == negRef {
					negSide, otherSide, matched = l, be.R, true
				}
			}
			if !matched && rIsCol {
				if b, _, err := resolve(r); err == nil && b.kind == negRef {
					negSide, otherSide, matched = r, be.L, true
				}
			}
			if matched {
				nb, col, err := resolve(negSide)
				if err != nil {
					return "", err
				}
				if hit, err := refersToNeg(otherSide); err != nil {
					return "", err
				} else if hit != nil {
					return "", fmt.Errorf("bsql: unsafe query: %s equates two negated items", conj.String())
				}
				if prev, dup := negBindings[nb][col]; dup {
					// A second binding for the same attribute becomes an
					// equality between the two binding expressions.
					residual = append(residual, sqlparser.BinaryExpr{Op: "=", L: prev, R: otherSide})
				} else {
					negBindings[nb][col] = otherSide
				}
				continue
			}
		}
		// Any other conjunct must not mention a negated item.
		if hit, err := refersToNeg(conj); err != nil {
			return "", err
		} else if hit != nil {
			return "", fmt.Errorf("bsql: unsafe query: negated item %s may only appear in attribute equalities (got %s)",
				hit.ref.Name(), conj.String())
		}
		residual = append(residual, conj)
	}

	// Emit one EXISTS per negative item (Algorithm 1 step 5 as a semi-join):
	// some valuation of the item's world holds the bound key and is either
	// the bound tuple stated negatively or a different tuple stated
	// positively (an unstated negative, Prop. 7).
	for _, b := range bindings {
		if b.kind != negRef {
			continue
		}
		bmap := negBindings[b]
		for _, c := range b.cols {
			if _, ok := bmap[c]; !ok {
				return "", fmt.Errorf("bsql: unsafe query: attribute %s of negated item %s is unbound; every attribute must be equated to a positive binding or constant",
					c, b.ref.Name())
			}
		}
		var subTables, subConds []string
		wid, err := chain(b, &subTables, &subConds)
		if err != nil {
			return "", err
		}
		subTables = append(subTables, b.ref.Table+"_v "+b.vName)
		subConds = append(subConds, fmt.Sprintf("%s.wid = %s", b.vName, wid))
		key, err := qualify(bmap[b.cols[0]])
		if err != nil {
			return "", err
		}
		if _, isCol := key.(sqlparser.ColumnRef); isCol {
			// A column equality keys the (wid, key) probe, and probes match
			// by value identity, NULL included.
			subConds = append(subConds, fmt.Sprintf("%s.key = %s", b.vName, key))
		} else {
			subConds = append(subConds, sameValue(b.vName+".key", key))
		}
		if len(b.cols) == 1 {
			subConds = append(subConds, fmt.Sprintf("%s.s = '-'", b.vName))
		} else {
			n := b.ref.Name()
			subTables = append(subTables, b.ref.Table+"_star "+n)
			subConds = append(subConds, fmt.Sprintf("%s.tid = %s.tid", n, b.vName))
			same := make([]string, 0, len(b.cols)-1)
			for _, c := range b.cols[1:] {
				bound, err := qualify(bmap[c])
				if err != nil {
					return "", err
				}
				same = append(same, sameValue(n+"."+c, bound))
			}
			sameTuple := strings.Join(same, " AND ")
			subConds = append(subConds, fmt.Sprintf("((%s.s = '-' AND %s) OR (%s.s = '+' AND NOT (%s)))",
				b.vName, sameTuple, b.vName, sameTuple))
		}
		conds = append(conds, fmt.Sprintf("EXISTS (SELECT 1 FROM %s WHERE %s)",
			strings.Join(subTables, ", "), strings.Join(subConds, " AND ")))
	}

	for _, r := range residual {
		conds = append(conds, r.String())
	}

	// Select list: validate it does not touch negated items.
	var items []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for _, b := range bindings {
				if b.kind == negRef {
					return "", fmt.Errorf("bsql: SELECT * cannot include negated item %s", b.ref.Name())
				}
				for _, c := range b.cols {
					items = append(items, b.ref.Name()+"."+c)
				}
			}
		case it.TableStar != "":
			b, ok := byName[it.TableStar]
			if !ok {
				return "", fmt.Errorf("bsql: unknown binding %q", it.TableStar)
			}
			if b.kind == negRef {
				return "", fmt.Errorf("bsql: SELECT %s.* references a negated item", it.TableStar)
			}
			for _, c := range b.cols {
				items = append(items, b.ref.Name()+"."+c)
			}
		default:
			if hit, err := refersToNeg(it.Expr); err != nil {
				return "", err
			} else if hit != nil {
				return "", fmt.Errorf("bsql: unsafe query: select item %s references negated item %s",
					it.Expr.String(), hit.ref.Name())
			}
			s := it.Expr.String()
			if it.Alias != "" {
				s += " AS " + it.Alias
			}
			items = append(items, s)
		}
	}

	// Aggregated queries group instead of deduplicating; plain BCQ answers
	// are sets, hence DISTINCT.
	aggregated := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if it.Expr != nil && containsAggCall(it.Expr) {
			aggregated = true
		}
	}
	head := "SELECT DISTINCT "
	if aggregated {
		head = "SELECT "
	}
	sql := head + strings.Join(items, ", ") + " FROM " + strings.Join(tables, ", ")
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	if len(sel.GroupBy) > 0 {
		var gs []string
		for _, g := range sel.GroupBy {
			if hit, err := refersToNeg(g); err != nil {
				return "", err
			} else if hit != nil {
				return "", fmt.Errorf("bsql: GROUP BY references negated item %s", hit.ref.Name())
			}
			gs = append(gs, g.String())
		}
		sql += " GROUP BY " + strings.Join(gs, ", ")
	}
	if len(sel.OrderBy) > 0 {
		var os []string
		for _, o := range sel.OrderBy {
			// ORDER BY may reference select aliases, which resolve is
			// unaware of; only reject resolvable negated references.
			if hit, err := refersToNeg(o.Expr); err == nil && hit != nil {
				return "", fmt.Errorf("bsql: ORDER BY references negated item %s", hit.ref.Name())
			}
			s := o.Expr.String()
			if o.Desc {
				s += " DESC"
			}
			os = append(os, s)
		}
		sql += " ORDER BY " + strings.Join(os, ", ")
	}
	if sel.Limit >= 0 {
		sql += fmt.Sprintf(" LIMIT %d", sel.Limit)
	}
	return sql, nil
}

// sameValue renders "col holds the value of e" as tuple identity, the
// comparison core.Eval applies to a negated atom: NULL equals NULL and
// differs from every constant, where a bare '=' would not be satisfied.
// The engine's comparisons are two-valued (NULL operands yield false), so
// NOT over a conjunction of these is "some attribute differs".
func sameValue(col string, e sqlparser.Expr) string {
	if lit, ok := e.(sqlparser.Literal); ok {
		if lit.Val.IsNull() {
			return col + " IS NULL"
		}
		return col + " = " + lit.String()
	}
	return fmt.Sprintf("(%s = %s OR (%s IS NULL AND %s IS NULL))", col, e, col, e)
}

// containsAggCall reports whether the expression contains an aggregate
// function call (COUNT/SUM/MIN/MAX/AVG).
func containsAggCall(e sqlparser.Expr) bool {
	switch ex := e.(type) {
	case sqlparser.FuncCall:
		switch strings.ToUpper(ex.Name) {
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			return true
		}
		for _, a := range ex.Args {
			if containsAggCall(a) {
				return true
			}
		}
	case sqlparser.BinaryExpr:
		return containsAggCall(ex.L) || containsAggCall(ex.R)
	case sqlparser.UnaryExpr:
		return containsAggCall(ex.X)
	case sqlparser.IsNull:
		return containsAggCall(ex.X)
	}
	return false
}

// splitConjuncts flattens top-level ANDs.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sqlparser.Expr{e}
}
