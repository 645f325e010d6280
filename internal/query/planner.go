package query

import (
	"fmt"
	"slices"
	"strings"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// binding ties a FROM-list alias to its table.
type binding struct {
	alias string
	table *engine.Table
}

// joinEdge is an equi-join conjunct between two bindings.
type joinEdge struct {
	a, b       string // aliases
	aCol, bCol string // column names on each side
}

// residual is a conjunct that needs several bindings before it can run:
// a predicate over their columns, or an EXISTS subquery planned as a
// semi-join (semi set, expr nil). It runs at the first step after which
// every binding it mentions is in place.
type residual struct {
	refs map[string]bool
	expr sqlparser.Expr
	pred compiledExpr
	semi *semiJoin
	done bool
}

// holds decides the residual for the row in the frame.
func (r *residual) holds(frame []val.Value) (bool, error) {
	if r.semi != nil {
		return r.semi.holds()
	}
	return truthy(r.pred, frame)
}

// rangeBound is one inequality conjunct on a column, normalized to
// column-on-left form: col <op> v.
type rangeBound struct {
	col string
	op  string // "<", "<=", ">", ">="
	v   val.Value
}

// tableCtx is the per-binding planning state.
type tableCtx struct {
	b       binding
	off     int               // frame offset of the binding's columns
	eqOn    map[int]val.Value // column position -> literal of a col = literal conjunct
	bounds  []rangeBound      // inequality conjuncts usable for range access
	filters []sqlparser.Expr  // all single-table conjuncts (includes eqOn/bounds)
	path    *accessPath       // chosen access path, lazily computed
}

// literal reports whether a const-eq conjunct fixes column c.
func (tc *tableCtx) literal(c int) bool {
	_, ok := tc.eqOn[c]
	return ok
}

// eqPrefix is the number of leading index columns fixed by literals.
func (tc *tableCtx) eqPrefix(cols []int) int {
	p := 0
	for p < len(cols) && tc.literal(cols[p]) {
		p++
	}
	return p
}

func tableSchema(b binding) relSchema {
	cols := b.table.Schema().Columns
	s := make(relSchema, len(cols))
	for i, c := range cols {
		s[i] = colID{rel: b.alias, name: c.Name}
	}
	return s
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(sqlparser.BinaryExpr); ok && be.Op == "AND" {
		out = splitAnd(be.L, out)
		return splitAnd(be.R, out)
	}
	return append(out, e)
}

// asConstEq recognizes col = literal (either order) conjuncts.
func asConstEq(e sqlparser.Expr) (sqlparser.ColumnRef, val.Value, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return sqlparser.ColumnRef{}, val.Value{}, false
	}
	if c, ok := be.L.(sqlparser.ColumnRef); ok {
		if l, ok := be.R.(sqlparser.Literal); ok {
			return c, l.Val, true
		}
	}
	if c, ok := be.R.(sqlparser.ColumnRef); ok {
		if l, ok := be.L.(sqlparser.Literal); ok {
			return c, l.Val, true
		}
	}
	return sqlparser.ColumnRef{}, val.Value{}, false
}

// asRangeBound recognizes col <op> literal inequality conjuncts (either
// order; a literal on the left flips the operator).
func asRangeBound(e sqlparser.Expr) (sqlparser.ColumnRef, string, val.Value, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok {
		return sqlparser.ColumnRef{}, "", val.Value{}, false
	}
	switch be.Op {
	case "<", "<=", ">", ">=":
	default:
		return sqlparser.ColumnRef{}, "", val.Value{}, false
	}
	if c, ok := be.L.(sqlparser.ColumnRef); ok {
		if l, ok := be.R.(sqlparser.Literal); ok {
			return c, be.Op, l.Val, true
		}
	}
	if c, ok := be.R.(sqlparser.ColumnRef); ok {
		if l, ok := be.L.(sqlparser.Literal); ok {
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
			return c, flip[be.Op], l.Val, true
		}
	}
	return sqlparser.ColumnRef{}, "", val.Value{}, false
}

// colInterval is the merged interval of every range bound on one column.
type colInterval struct {
	lo, hi         *val.Value // nil = open side
	loIncl, hiIncl bool
}

// interval folds tc's range bounds on the named column into one interval,
// keeping the tightest bound per side.
func (tc *tableCtx) interval(col string) colInterval {
	var iv colInterval
	for i := range tc.bounds {
		rb := &tc.bounds[i]
		if rb.col != col {
			continue
		}
		switch rb.op {
		case ">", ">=":
			incl := rb.op == ">="
			if iv.lo == nil {
				iv.lo, iv.loIncl = &rb.v, incl
			} else if c, ok := val.Compare(rb.v, *iv.lo); ok &&
				(c > 0 || (c == 0 && !incl)) {
				iv.lo, iv.loIncl = &rb.v, incl
			}
		case "<", "<=":
			incl := rb.op == "<="
			if iv.hi == nil {
				iv.hi, iv.hiIncl = &rb.v, incl
			} else if c, ok := val.Compare(rb.v, *iv.hi); ok &&
				(c < 0 || (c == 0 && !incl)) {
				iv.hi, iv.hiIncl = &rb.v, incl
			}
		}
	}
	return iv
}

// asJoinEdge recognizes colref = colref conjuncts across two bindings.
func asJoinEdge(e sqlparser.Expr, schema relSchema) (joinEdge, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return joinEdge{}, false
	}
	lc, lok := be.L.(sqlparser.ColumnRef)
	rc, rok := be.R.(sqlparser.ColumnRef)
	if !lok || !rok {
		return joinEdge{}, false
	}
	li, err := schema.find(lc)
	if err != nil {
		return joinEdge{}, false
	}
	ri, err := schema.find(rc)
	if err != nil {
		return joinEdge{}, false
	}
	if schema[li].rel == schema[ri].rel {
		return joinEdge{}, false
	}
	return joinEdge{
		a: schema[li].rel, aCol: schema[li].name,
		b: schema[ri].rel, bCol: schema[ri].name,
	}, true
}

// pathKind enumerates the candidate access paths for one base table.
type pathKind int

const (
	pathScan    pathKind = iota // full table scan
	pathPK                      // primary-key point lookup
	pathEqProbe                 // secondary index probe, all columns const-eq bound
	pathRange                   // ordered-index range walk (eq prefix + interval)
	pathOrdered                 // range walk in ORDER BY order (see orderedPath)
)

func (k pathKind) String() string {
	switch k {
	case pathPK:
		return "pk probe"
	case pathEqProbe:
		return "eq probe"
	case pathRange:
		return "range walk"
	case pathOrdered:
		return "ordered walk"
	default:
		return "full scan"
	}
}

// rangeWalkPenalty is the per-row multiplier charged to an ordered-index
// range walk relative to a sequential scan: walked rows are fetched through
// the id indirection in key order rather than streamed page by page. With a
// factor of 3 a predicate selecting more than a third of the table falls
// back to the full scan.
const rangeWalkPenalty = 3.0

// accessPath is one costed way to produce a base table's filtered rows.
type accessPath struct {
	kind           pathKind
	idx            *engine.Index // pathEqProbe/pathRange
	pkVal          val.Value     // pathPK
	eqVals         []val.Value   // pathEqProbe: one value per index column
	lo, hi         []val.Value   // pathRange: composite bounds (possibly prefix, possibly nil)
	loIncl, hiIncl bool
	desc           bool    // pathOrdered: walk in descending key order
	limit          int     // pathOrdered: the query's LIMIT, -1 for none
	est            float64 // estimated rows fetched before residual filters
	cost           float64 // estimated work
}

// detail renders the path for EXPLAIN output.
func (p *accessPath) detail() string {
	var sb strings.Builder
	if p.kind == pathOrdered {
		fmt.Fprintf(&sb, "index=%s order-satisfying", p.idx.Name())
		if p.desc {
			sb.WriteString(" desc")
		}
		if p.limit >= 0 {
			fmt.Fprintf(&sb, " limit=%d", p.limit)
		}
		return sb.String()
	}
	if p.idx != nil {
		fmt.Fprintf(&sb, "index=%s", p.idx.Name())
	}
	if p.kind == pathRange {
		bound := func(vs []val.Value) string {
			parts := make([]string, len(vs))
			for i, v := range vs {
				parts[i] = v.SQL()
			}
			return strings.Join(parts, ",")
		}
		sb.WriteString(" range=")
		if p.lo != nil {
			if p.loIncl {
				sb.WriteString("[")
			} else {
				sb.WriteString("(")
			}
			sb.WriteString(bound(p.lo))
		} else {
			sb.WriteString("(")
		}
		sb.WriteString("..")
		if p.hi != nil {
			sb.WriteString(bound(p.hi))
			if p.hiIncl {
				sb.WriteString("]")
			} else {
				sb.WriteString(")")
			}
		} else {
			sb.WriteString(")")
		}
	}
	if sb.Len() > 0 {
		fmt.Fprintf(&sb, " est=%d", int(p.est))
	} else {
		fmt.Fprintf(&sb, "est=%d", int(p.est))
	}
	return sb.String()
}

// bestProbe is the planner's one choice of index: the cheapest way to
// fetch t's rows when the columns for which bound reports true hold known
// values — literals, columns of rows already in place, or an enclosing
// query's parameters. A bound primary key reaches one row; otherwise the
// fully bound index with the fewest rows per key (N/L for L distinct keys)
// wins, equal buckets going to the wider index and then to the first name.
// key lists the probe's columns: the pk column alone (idx nil) or idx's.
// With neither (key nil) the rows must be scanned, at cost N.
func bestProbe(t *engine.Table, bound func(col int) bool) (key []int, idx *engine.Index, cost float64) {
	if c := t.PKCol(); c >= 0 && bound(c) {
		return []int{c}, nil, 1
	}
	n := float64(t.Len())
	cost = n
indexes:
	for _, ix := range t.Indexes() {
		for _, c := range ix.Cols() {
			if !bound(c) {
				continue indexes
			}
		}
		if ix.Len() == 0 {
			continue
		}
		perKey := n / float64(ix.Len())
		if idx == nil || perKey < cost || perKey == cost &&
			(len(ix.Cols()) > len(idx.Cols()) || len(ix.Cols()) == len(idx.Cols()) && ix.Name() < idx.Name()) {
			idx, cost = ix, perKey
		}
	}
	if idx == nil {
		return nil, nil, cost
	}
	return idx.Cols(), idx, cost
}

// accessPath chooses the cheapest candidate path for the binding, caching
// the result: the probe bestProbe picks on the literal-bound columns, or a
// range walk over an ordered index, or a full scan. Candidates are costed
// from the exact distinct-key counts the indexes maintain (Index.Len,
// ordered-index range ranks) and the table cardinality.
func (tc *tableCtx) accessPath() *accessPath {
	if tc.path != nil {
		return tc.path
	}
	t := tc.b.table
	sch := t.Schema()
	n := float64(t.Len())
	best := &accessPath{kind: pathScan, est: n, cost: n}
	switch key, idx, cost := bestProbe(t, tc.literal); {
	case idx != nil:
		vals := make([]val.Value, len(key))
		for i, c := range key {
			vals[i] = tc.eqOn[c]
		}
		best = &accessPath{kind: pathEqProbe, idx: idx, eqVals: vals, est: cost, cost: cost}
	case key != nil:
		best = &accessPath{kind: pathPK, pkVal: tc.eqOn[key[0]], est: 1, cost: 1}
	}
	for _, idx := range t.Indexes() {
		cols := idx.Cols()
		p := tc.eqPrefix(cols)
		if !idx.Ordered() || p == len(cols) || idx.Len() == 0 {
			continue
		}
		// Ordered index with a partial prefix: an eq prefix and/or an
		// interval on the next column yield a bounded range walk.
		iv := tc.interval(sch.Columns[cols[p]].Name)
		if p == 0 && iv.lo == nil && iv.hi == nil {
			continue
		}
		prefix := make([]val.Value, p)
		for i := 0; i < p; i++ {
			prefix[i] = tc.eqOn[cols[i]]
		}
		ap := &accessPath{kind: pathRange, idx: idx, loIncl: true, hiIncl: true}
		if iv.lo != nil {
			ap.lo = append(append([]val.Value(nil), prefix...), *iv.lo)
			ap.loIncl = iv.loIncl
		} else if p > 0 {
			ap.lo = prefix
		}
		if iv.hi != nil {
			ap.hi = append(append([]val.Value(nil), prefix...), *iv.hi)
			ap.hiIncl = iv.hiIncl
		} else if p > 0 {
			ap.hi = prefix
		}
		keys := float64(idx.RangeKeys(ap.lo, ap.loIncl, ap.hi, ap.hiIncl))
		ap.est = keys * n / float64(idx.Len())
		ap.cost = rangeWalkPenalty * ap.est
		if ap.cost < best.cost {
			best = ap
		}
	}
	tc.path = best
	return best
}

// estimate guesses the post-filter cardinality of a base table.
func (tc *tableCtx) estimate() int {
	n := tc.b.table.Len()
	switch p := tc.accessPath(); p.kind {
	case pathPK:
		return 1
	case pathEqProbe, pathRange:
		return int(p.est) + 1
	default:
		if len(tc.eqOn) > 0 {
			return n/3 + 1
		}
		if len(tc.filters) > 0 {
			return n/2 + 1
		}
		return n
	}
}

// pointwise reports whether the chosen path is a key probe on literals.
func (tc *tableCtx) pointwise() bool {
	switch tc.accessPath().kind {
	case pathPK, pathEqProbe:
		return true
	}
	return false
}

// stepCost is the number of rows one left row reaches when tc joins next,
// given joined, the columns its edges to placed bindings fix: 1 through a
// bound primary key, N/L through the best fully bound index (literals bind
// too), otherwise its filtered cardinality, as a hash or cross join.
func (tc *tableCtx) stepCost(joined []int) float64 {
	bound := func(c int) bool { return tc.literal(c) || slices.Contains(joined, c) }
	if key, _, cost := bestProbe(tc.b.table, bound); key != nil {
		return cost
	}
	return float64(tc.estimate())
}

// joinedCols lists tc's columns that an edge to a placed binding fixes.
func (tc *tableCtx) joinedCols(edges []*joinEdge, placed map[string]bool) []int {
	var cols []int
	for _, e := range edges {
		if col, other, _ := e.from(tc.b.alias); placed[other] {
			cols = append(cols, tc.b.table.Schema().ColumnIndex(col))
		}
	}
	return cols
}

// from orients the edge from alias's side: alias's column, then the other
// binding and its column; other is "" when alias is on neither side.
func (e *joinEdge) from(alias string) (col, other, otherCol string) {
	switch alias {
	case e.a:
		return e.aCol, e.b, e.bCol
	case e.b:
		return e.bCol, e.a, e.aCol
	}
	return "", "", ""
}

// buildCtxs creates the per-binding planning state for a FROM list and the
// schema of the frame's leading columns: every binding's, in FROM order.
func buildCtxs(bindings []binding) (map[string]*tableCtx, []string, relSchema, error) {
	full := relSchema{}
	ctxs := make(map[string]*tableCtx, len(bindings))
	var order []string
	for _, b := range bindings {
		if _, dup := ctxs[b.alias]; dup {
			return nil, nil, nil, fmt.Errorf("query: duplicate table binding %q", b.alias)
		}
		ctxs[b.alias] = &tableCtx{b: b, off: len(full)}
		order = append(order, b.alias)
		full = append(full, tableSchema(b)...)
	}
	return ctxs, order, full, nil
}

// classifyWhere splits a WHERE conjunction into per-binding filters
// (recording const-eq and range conjuncts on their tableCtx), join edges,
// residual predicates (EXISTS conjuncts among them, planned here against
// cat, each taking the frame columns from the previous one's end on), the
// frame width, and a constant-truth verdict.
func classifyWhere(cat *engine.Catalog, where sqlparser.Expr, full relSchema, ctxs map[string]*tableCtx) (edges []*joinEdge, residuals []*residual, width int, constTrue bool, err error) {
	width, constTrue = len(full), true
	if where == nil {
		return nil, nil, width, true, nil
	}
	for _, conj := range splitAnd(where, nil) {
		if ex, ok := conj.(sqlparser.Exists); ok {
			sj, err := planSemiJoin(cat, ex, full, width)
			if err != nil {
				return nil, nil, 0, false, err
			}
			width = sj.end
			residuals = append(residuals, &residual{refs: sj.refs, semi: sj})
			continue
		}
		refs := make(map[string]bool)
		if err := exprRefs(conj, full, refs); err != nil {
			return nil, nil, 0, false, err
		}
		switch len(refs) {
		case 0:
			p, err := compileExpr(conj, relSchema{})
			if err != nil {
				return nil, nil, 0, false, err
			}
			ok, err := truthy(p, nil)
			if err != nil {
				return nil, nil, 0, false, err
			}
			if !ok {
				constTrue = false
			}
		case 1:
			var alias string
			for a := range refs {
				alias = a
			}
			tc := ctxs[alias]
			tc.filters = append(tc.filters, conj)
			if c, v, ok := asConstEq(conj); ok {
				// Resolve the unqualified case to be sure of the column.
				i, err := full.find(c)
				if err == nil && full[i].rel == alias {
					if tc.eqOn == nil {
						tc.eqOn = make(map[int]val.Value)
					}
					tc.eqOn[tc.b.table.Schema().ColumnIndex(full[i].name)] = v
				}
			} else if c, op, v, ok := asRangeBound(conj); ok {
				i, err := full.find(c)
				if err == nil && full[i].rel == alias {
					tc.bounds = append(tc.bounds, rangeBound{col: full[i].name, op: op, v: v})
				}
			}
		case 2:
			if e, ok := asJoinEdge(conj, full); ok {
				edges = append(edges, &e)
				continue
			}
			residuals = append(residuals, &residual{refs: refs, expr: conj})
		default:
			residuals = append(residuals, &residual{refs: refs, expr: conj})
		}
	}
	return edges, residuals, width, constTrue, nil
}

// plan is a SELECT's FROM list as one left-deep chain of steps over a
// single frame: every binding's columns in FROM order (schema), then the
// columns of each EXISTS subquery's tables.
type plan struct {
	chain
	schema  relSchema
	empty   bool // a constant-false conjunct: the chain emits nothing
	ordered bool // the first step walks an ordered index in ORDER BY order
}

// planChain orders the bindings into a chain and chooses each one's step.
// The greedy order is the semi-join's step rule: a binding joined to a
// placed one by an edge, or reached by a key probe on its own literals, is
// a candidate at cost stepCost; the cheapest is placed, ties keeping FROM
// order. A binding that is neither would enter as a cross join costed by a
// guess, so it waits until no candidate is left (a disconnected join
// graph). Every residual runs at the first step after which it is
// decidable. With inOrder a single binding whose ORDER BY an ordered index
// satisfies walks that index (orderedPath).
func planChain(cat *engine.Catalog, bindings []binding, s sqlparser.Select, inOrder bool, rec *planRecorder) (*plan, error) {
	ctxs, order, full, err := buildCtxs(bindings)
	if err != nil {
		return nil, err
	}
	edges, residuals, width, constTrue, err := classifyWhere(cat, s.Where, full, ctxs)
	if err != nil {
		return nil, err
	}
	p := &plan{schema: full, empty: !constTrue}
	if p.empty {
		rec.record("", "empty", "constant-false predicate", 0)
		return p, nil
	}
	p.frame = make([]val.Value, width)
	for _, r := range residuals {
		if r.semi == nil {
			if r.pred, err = compileExpr(r.expr, full); err != nil {
				return nil, err
			}
		}
	}

	placed := make(map[string]bool)
	remaining := append([]string(nil), order...)
	for len(remaining) > 0 {
		next, nextCost := -1, 0.0
		for _, all := range []bool{false, true} {
			for i, a := range remaining {
				joined := ctxs[a].joinedCols(edges, placed)
				if !all && len(joined) == 0 && !ctxs[a].pointwise() {
					continue
				}
				if c := ctxs[a].stepCost(joined); next < 0 || c < nextCost {
					next, nextCost = i, c
				}
			}
			if next >= 0 {
				break
			}
		}
		tc := ctxs[remaining[next]]
		remaining = slices.Delete(remaining, next, next+1)
		var st *step
		if len(p.steps) == 0 {
			if inOrder && len(bindings) == 1 && len(residuals) == 0 {
				if ap := orderedPath(tc, s, full); ap != nil {
					tc.path, p.ordered = ap, true
				}
			}
			st, err = tc.pathStep(full)
		} else {
			st, err = tc.joinStep(edges, placed, full)
		}
		if err != nil {
			return nil, err
		}
		placed[tc.b.alias] = true
	residuals:
		for _, r := range residuals {
			for a := range r.refs {
				if r.done || !placed[a] {
					continue residuals
				}
			}
			r.done = true
			st.after = append(st.after, r)
		}
		p.steps = append(p.steps, st)
	}
	for _, r := range residuals {
		if !r.done {
			return nil, fmt.Errorf("query: internal error: a residual predicate was never applied")
		}
	}
	return p, nil
}

// exec runs the plan into term: each step's once-only work first (build
// sides collected, EXISTS prefixes resolved), then the chain. With rec set
// it records every step with the rows it actually produced.
func (p *plan) exec(term func(frame []val.Value) (bool, error), rec *planRecorder) error {
	if p.empty {
		return nil
	}
	for _, st := range p.steps {
		if err := st.prepare(p.frame); err != nil {
			return err
		}
	}
	p.term = term
	if _, err := p.run(0); err != nil {
		return err
	}
	if rec != nil {
		for _, st := range p.steps {
			st.explain(rec)
		}
	}
	return nil
}

// compileFilters compiles the binding's single-table conjuncts against the
// frame.
func (tc *tableCtx) compileFilters(full relSchema) ([]compiledExpr, error) {
	preds := make([]compiledExpr, 0, len(tc.filters))
	for _, f := range tc.filters {
		p, err := compileExpr(f, full)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return preds, nil
}

// pathStep reaches the binding's rows through its own access path.
func (tc *tableCtx) pathStep(full relSchema) (*step, error) {
	ap := tc.accessPath()
	st := &step{alias: tc.b.alias, table: tc.b.table, off: tc.off, path: ap, idx: ap.idx, fetch: fetchScan}
	switch ap.kind {
	case pathPK:
		st.fetch, st.key = fetchProbe, []val.Value{ap.pkVal}
	case pathEqProbe:
		st.fetch, st.key = fetchProbe, ap.eqVals
	case pathRange, pathOrdered:
		st.fetch = fetchWalk
	}
	var err error
	st.filters, err = tc.compileFilters(full)
	return st, err
}

// joinStep joins the binding to the placed ones through its edges: by
// index join when the probe bestProbe picks for the joined and literal
// columns is keyed by a joined one, otherwise by hash join (a cross join
// with no edges) over the rows its own access path collects once.
func (tc *tableCtx) joinStep(edges []*joinEdge, placed map[string]bool, full relSchema) (*step, error) {
	t := tc.b.table
	joined := make(map[int]int) // column -> frame slot of a placed column equal to it
	var pairs [][2]int          // frame slots of equal columns: placed side, this binding's
	for _, e := range edges {
		col, other, otherCol := e.from(tc.b.alias)
		if !placed[other] {
			continue
		}
		left, err := full.find(sqlparser.ColumnRef{Table: other, Column: otherCol})
		if err != nil {
			return nil, err
		}
		c := t.Schema().ColumnIndex(col)
		joined[c] = left
		pairs = append(pairs, [2]int{left, tc.off + c})
	}
	st := &step{alias: tc.b.alias, table: t, off: tc.off}
	keyCols, idx, _ := bestProbe(t, func(c int) bool {
		_, ok := joined[c]
		return ok || tc.literal(c)
	})
	if slices.ContainsFunc(keyCols, func(c int) bool { _, ok := joined[c]; return ok }) {
		st.fetch, st.op, st.idx = fetchProbe, "index join", idx
		st.key, st.keySlot = make([]val.Value, len(keyCols)), make([]int, len(keyCols))
		for k, c := range keyCols {
			if slot, ok := joined[c]; ok {
				st.keySlot[k] = slot
			} else {
				st.key[k], st.keySlot[k] = tc.eqOn[c], -1
			}
		}
		// The probe enforces the equalities it is keyed by; the rest are
		// checked on every fetched row.
		for _, pr := range pairs {
			if k := slices.Index(keyCols, pr[1]-tc.off); k < 0 || st.keySlot[k] != pr[0] {
				st.checks = append(st.checks, pr)
			}
		}
		var err error
		st.filters, err = tc.compileFilters(full)
		return st, err
	}
	src, err := tc.pathStep(full)
	if err != nil {
		return nil, err
	}
	st.src, st.fetch, st.op = src, fetchRows, "cross join"
	if len(pairs) > 0 {
		// Buckets are keyed by the 64-bit composite hash of the join
		// columns; the checks re-verify value equality, so hash collisions
		// never join unequal rows.
		st.fetch, st.op, st.checks = fetchHash, "hash join", pairs
		for _, pr := range pairs {
			st.keySlot = append(st.keySlot, pr[0])
			st.hashCols = append(st.hashCols, pr[1]-tc.off)
		}
	}
	return st, nil
}

// fetchKind is how a step reaches its rows.
type fetchKind int

const (
	fetchScan  fetchKind = iota // every row of the table
	fetchProbe                  // a primary-key (idx nil) or index lookup of key
	fetchWalk                   // path's ordered-index range walk
	fetchRows                   // the rows collected once (a cross join, a replayed prefix)
	fetchHash                   // the collected rows in the bucket of keySlot's hash
)

// step is one binding of a probe chain: how its rows are reached once the
// steps before it are in place, where in the frame they go, and what is
// decided there. Positive joins and EXISTS subqueries are chains of steps.
type step struct {
	alias string
	table *engine.Table
	off   int // frame offset of the table's columns

	fetch    fetchKind
	idx      *engine.Index            // fetchProbe (nil: primary key), fetchWalk
	key      []val.Value              // fetchProbe key; literal parts are filled in once
	keySlot  []int                    // frame slot feeding key[k], -1 for a literal; fetchHash: the slots hashed
	path     *accessPath              // the binding's own access path
	src      *step                    // fetchRows, fetchHash: the step collecting rows
	rows     [][]val.Value            // fetchRows, fetchHash: the rows src collected (or prefix copies)
	build    map[uint64][][]val.Value // fetchHash: rows by the hash of hashCols
	hashCols []int                    // fetchHash: the columns hashed
	op       string                   // EXPLAIN: a join's name; "" for an access path

	checks  [][2]int       // frame slots that must be Equal
	filters []compiledExpr // conjuncts decidable once the row is placed
	after   []*residual    // residuals decidable here, run past the row count

	row             []val.Value // the row last placed, for a collecting terminal
	fetched, passed int         // rows fetched; rows past checks and filters
}

// chain runs its steps left-deep over one frame: each fetched row is
// placed at its step's offset, checked, and handed to the next step; past
// the last one the terminal reads the frame. A positive join's terminal is
// a sink that emits and continues; an EXISTS subquery's stops at the first
// match. A terminal's stop ends the whole run, which then reports true.
type chain struct {
	steps []*step
	frame []val.Value
	term  func(frame []val.Value) (stop bool, err error)
}

func (c *chain) run(i int) (bool, error) {
	if i == len(c.steps) {
		return c.term(c.frame)
	}
	st := c.steps[i]
	var rows [][]val.Value
	switch st.fetch {
	case fetchProbe:
		for k, s := range st.keySlot {
			if s >= 0 {
				st.key[k] = c.frame[s]
			}
		}
		if st.idx == nil {
			if id, ok := st.table.LookupPK(st.key[0]); ok {
				return c.place(i, st.table.Get(id))
			}
			return false, nil
		}
		for _, id := range st.idx.Lookup(st.key) {
			if stop, err := c.place(i, st.table.Get(id)); stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	case fetchScan, fetchWalk:
		var stop bool
		var err error
		each := func(_ []val.Value, ids []engine.RowID) bool {
			for _, id := range ids {
				if stop, err = c.place(i, st.table.Get(id)); stop || err != nil {
					return false
				}
			}
			return true
		}
		switch p := st.path; {
		case st.fetch == fetchScan:
			st.table.Scan(func(_ engine.RowID, row []val.Value) bool {
				stop, err = c.place(i, row)
				return !stop && err == nil
			})
		case p.desc:
			st.idx.DescendRange(p.lo, p.loIncl, p.hi, p.hiIncl, each)
		default:
			st.idx.AscendRange(p.lo, p.loIncl, p.hi, p.hiIncl, each)
		}
		return stop, err
	case fetchHash:
		h := val.HashSeed()
		for _, s := range st.keySlot {
			h = val.Hash64(h, c.frame[s])
		}
		rows = st.build[h]
	default:
		rows = st.rows
	}
	for _, r := range rows {
		if stop, err := c.place(i, r); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// place puts one fetched row of step i in the frame, applies what is
// decidable there, and continues with the next step.
func (c *chain) place(i int, row []val.Value) (bool, error) {
	st := c.steps[i]
	st.fetched++
	st.row = row
	copy(c.frame[st.off:], row)
	for _, ck := range st.checks {
		if !val.Equal(c.frame[ck[0]], c.frame[ck[1]]) {
			return false, nil
		}
	}
	for _, f := range st.filters {
		if ok, err := truthy(f, c.frame); !ok || err != nil {
			return false, err
		}
	}
	st.passed++
	for _, r := range st.after {
		if ok, err := r.holds(c.frame); !ok || err != nil {
			return false, err
		}
	}
	return c.run(i + 1)
}

// prepare does the step's once-only work before the chain runs: a cross or
// hash join's build side collected through its own access path, and the
// EXISTS subqueries decided here prepared.
func (st *step) prepare(frame []val.Value) error {
	if st.src != nil {
		collect := chain{steps: []*step{st.src}, frame: frame, term: func([]val.Value) (bool, error) {
			st.rows = append(st.rows, st.src.row)
			return false, nil
		}}
		if _, err := collect.run(0); err != nil {
			return err
		}
	}
	if st.fetch == fetchHash {
		st.build = make(map[uint64][][]val.Value, len(st.rows))
		for _, r := range st.rows {
			h := val.HashSeed()
			for _, c := range st.hashCols {
				h = val.Hash64(h, r[c])
			}
			st.build[h] = append(st.build[h], r)
		}
	}
	for _, r := range st.after {
		if r.semi != nil {
			if err := r.semi.prepare(frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// explain records the step: a build side's access path before its join,
// then the residual semi-joins it ran.
func (st *step) explain(rec *planRecorder) {
	switch {
	case st.src != nil:
		st.src.explain(rec)
		rec.record(st.alias, st.op, "", st.passed)
	case st.op != "":
		detail := "pk"
		if st.idx != nil {
			detail = "index=" + st.idx.Name()
		}
		rec.record(st.alias, st.op, detail, st.passed)
	default:
		rec.record(st.alias, st.path.kind.String(), st.path.detail(), st.passed)
	}
	for _, r := range st.after {
		if r.semi != nil {
			r.semi.explain(rec)
		}
	}
}
