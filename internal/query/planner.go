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

// fromBindings resolves a FROM list against cat.
func fromBindings(cat *engine.Catalog, from []sqlparser.TableRef) ([]binding, error) {
	bindings := make([]binding, 0, len(from))
	for _, ref := range from {
		t := cat.Table(ref.Table)
		if t == nil {
			return nil, fmt.Errorf("query: no table %q", ref.Table)
		}
		bindings = append(bindings, binding{alias: ref.Name(), table: t})
	}
	return bindings, nil
}

// joinEdge is an equi-join conjunct between two bindings: column aCol of
// binding a equals column bCol of binding b (FROM and column positions).
type joinEdge struct {
	a, b       int
	aCol, bCol int
}

// residual is a conjunct that is neither a filter nor a join edge: a
// predicate over several bindings' columns, or over the enclosing query's
// alone, or an EXISTS subquery planned as a semi-join (semi set, expr nil).
// It runs at the first step after which every binding it mentions is in
// place.
type residual struct {
	refs []bool // the bindings it mentions, by FROM position
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

// filter is a conjunct that mentions one binding alone. A const-eq or
// range conjunct also records its column and literal, normalized to
// column-on-left form: col <op> v.
type filter struct {
	bind int // the binding's FROM position
	expr sqlparser.Expr
	op   string // "=", "<", "<=", ">", ">=", or "" for any other conjunct
	col  int    // the binding's column that op bounds
	v    val.Value
}

// tableCtx is the per-binding planning state.
type tableCtx struct {
	b       binding
	off     int        // frame offset of the binding's columns
	filters []filter   // its single-binding conjuncts, in WHERE order
	path    accessPath // chosen access path, once chosen is set
	chosen  bool
}

// eq returns the literal a const-eq conjunct fixes column c to; of two on
// one column, the later wins.
func (tc *tableCtx) eq(c int) (val.Value, bool) {
	for i := len(tc.filters) - 1; i >= 0; i-- {
		if f := &tc.filters[i]; f.op == "=" && f.col == c {
			return f.v, true
		}
	}
	return val.Value{}, false
}

// literal reports whether a const-eq conjunct fixes column c.
func (tc *tableCtx) literal(c int) bool {
	_, ok := tc.eq(c)
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

// appendSchema appends the columns of b, the binding at FROM position bind,
// to s.
func appendSchema(s relSchema, b binding, bind int) relSchema {
	for _, c := range b.table.Schema().Columns {
		s = append(s, colID{rel: b.alias, name: c.Name, bind: bind})
	}
	return s
}

// bindCount is the number of bindings whose columns s holds.
func bindCount(s relSchema) int {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].bind + 1
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(sqlparser.BinaryExpr); ok && be.Op == "AND" {
		out = splitAnd(be.L, out)
		return splitAnd(be.R, out)
	}
	return append(out, e)
}

// flipped is a comparison with its operands swapped.
var flipped = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// asBound recognizes col = literal and col <op> literal conjuncts, either
// order; a literal on the left flips the operator.
func asBound(e sqlparser.Expr) (string, val.Value, bool) {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || flipped[be.Op] == "" {
		return "", val.Value{}, false
	}
	if _, ok := be.L.(sqlparser.ColumnRef); ok {
		if l, ok := be.R.(sqlparser.Literal); ok {
			return be.Op, l.Val, true
		}
	}
	if _, ok := be.R.(sqlparser.ColumnRef); ok {
		if l, ok := be.L.(sqlparser.Literal); ok {
			return flipped[be.Op], l.Val, true
		}
	}
	return "", val.Value{}, false
}

// colInterval is the merged interval of every range bound on one column.
type colInterval struct {
	lo, hi         *val.Value // nil = open side
	loIncl, hiIncl bool
}

// interval folds tc's range bounds on column col into one interval,
// keeping the tightest bound per side.
func (tc *tableCtx) interval(col int) colInterval {
	var iv colInterval
	for i := range tc.filters {
		rb := &tc.filters[i]
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

// isColumnEq recognizes colref = colref conjuncts; over two bindings they
// are join edges.
func isColumnEq(e sqlparser.Expr) bool {
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	_, lok := be.L.(sqlparser.ColumnRef)
	_, rok := be.R.(sqlparser.ColumnRef)
	return lok && rok
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
	if tc.chosen {
		return &tc.path
	}
	t := tc.b.table
	n := float64(t.Len())
	best := accessPath{kind: pathScan, est: n, cost: n}
	switch key, idx, cost := bestProbe(t, tc.literal); {
	case idx != nil:
		vals := make([]val.Value, len(key))
		for i, c := range key {
			vals[i], _ = tc.eq(c)
		}
		best = accessPath{kind: pathEqProbe, idx: idx, eqVals: vals, est: cost, cost: cost}
	case key != nil:
		best = accessPath{kind: pathPK, est: 1, cost: 1}
		best.pkVal, _ = tc.eq(key[0])
	}
	for _, idx := range t.Indexes() {
		cols := idx.Cols()
		p := tc.eqPrefix(cols)
		if !idx.Ordered() || p == len(cols) || idx.Len() == 0 {
			continue
		}
		// Ordered index with a partial prefix: an eq prefix and/or an
		// interval on the next column yield a bounded range walk.
		iv := tc.interval(cols[p])
		if p == 0 && iv.lo == nil && iv.hi == nil {
			continue
		}
		prefix := make([]val.Value, p)
		for i := 0; i < p; i++ {
			prefix[i], _ = tc.eq(cols[i])
		}
		ap := accessPath{kind: pathRange, idx: idx, loIncl: true, hiIncl: true}
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
	tc.path, tc.chosen = best, true
	return &tc.path
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
		if slices.ContainsFunc(tc.filters, func(f filter) bool { return f.op == "=" }) {
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

// joinedCols appends to cols the columns of the binding at FROM position
// bind that an edge to a placed binding fixes.
func joinedCols(bind int, edges []joinEdge, placed []bool, cols []int) []int {
	for i := range edges {
		if col, other, _ := edges[i].from(bind); other >= 0 && placed[other] {
			cols = append(cols, col)
		}
	}
	return cols
}

// from orients the edge from binding bind's side: its column, then the
// other binding and its column; other is -1 when bind is on neither side.
func (e *joinEdge) from(bind int) (col, other, otherCol int) {
	switch bind {
	case e.a:
		return e.aCol, e.b, e.bCol
	case e.b:
		return e.bCol, e.a, e.aCol
	}
	return -1, -1, -1
}

// buildCtxs creates the per-binding planning state of a chain, by
// position, and the schema of its frame's leading columns. An EXISTS
// subquery's chain starts with the enclosing query's bindings, whose frame
// schema is outer (nil at the top level): they keep their positions and
// offsets, and its own bindings follow in FROM order.
func buildCtxs(outer relSchema, bindings []binding) ([]tableCtx, relSchema, error) {
	nOuter := bindCount(outer)
	ctxs := make([]tableCtx, nOuter+len(bindings))
	width := len(outer)
	for i, b := range bindings {
		for _, prev := range bindings[:i] {
			if prev.alias == b.alias {
				return nil, nil, fmt.Errorf("query: duplicate table binding %q", b.alias)
			}
		}
		ctxs[nOuter+i] = tableCtx{b: b, off: width}
		width += b.table.Schema().Arity()
	}
	full := make(relSchema, len(outer), width)
	for i, c := range outer {
		if i == 0 || outer[i-1].bind != c.bind {
			ctxs[c.bind].off = i
		}
		c.outer = true
		full[i] = c
	}
	for i, b := range bindings {
		full = appendSchema(full, b, nOuter+i)
	}
	return ctxs, full, nil
}

// classifyWhere splits a WHERE conjunction into per-binding filters
// (recording const-eq and range conjuncts on their tableCtx), join edges,
// residual predicates (EXISTS conjuncts among them, planned here against
// cat, all sharing the frame columns past full's), the frame width, and a
// constant-truth verdict. Each conjunct's column references are resolved
// once, into the bindings it mentions and the frame slots of its first two
// columns. A conjunct that mentions only the enclosing query's bindings is
// a residual, decided at the first step.
func classifyWhere(cat *engine.Catalog, where sqlparser.Expr, full relSchema, ctxs []tableCtx) (edges []joinEdge, residuals []*residual, width int, constTrue bool, err error) {
	width, constTrue = len(full), true
	if where == nil {
		return nil, nil, width, true, nil
	}
	conjs := splitAnd(where, make([]sqlparser.Expr, 0, 16))
	edges = make([]joinEdge, 0, len(conjs))
	filters := make([]filter, 0, len(conjs))
	refs := make([]bool, len(ctxs))
	for _, conj := range conjs {
		if ex, ok := conj.(sqlparser.Exists); ok {
			sj, err := planSemiJoin(cat, ex, full)
			if err != nil {
				return nil, nil, 0, false, err
			}
			width = max(width, sj.width)
			residuals = append(residuals, &residual{refs: sj.refs, semi: sj})
			continue
		}
		clear(refs)
		n, own, slots := 0, false, [2]int{-1, -1}
		err := walkColumnRefs(conj, func(ref sqlparser.ColumnRef) error {
			i, err := full.find(ref)
			if err != nil {
				return err
			}
			own = own || !full[i].outer
			if b := full[i].bind; !refs[b] {
				refs[b] = true
				n++
			}
			if slots[0] < 0 {
				slots[0] = i
			} else if slots[1] < 0 {
				slots[1] = i
			}
			return nil
		})
		if err != nil {
			return nil, nil, 0, false, err
		}
		switch {
		case n == 0:
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
		case !own:
			residuals = append(residuals, &residual{refs: slices.Clone(refs), expr: conj})
		case n == 1:
			// A conjunct on one binding is its filter; a const-eq or range
			// conjunct's one column is its first.
			b := full[slots[0]].bind
			f := filter{bind: b, expr: conj, col: slots[0] - ctxs[b].off}
			f.op, f.v, _ = asBound(conj)
			filters = append(filters, f)
		case n == 2 && isColumnEq(conj):
			a, b := full[slots[0]].bind, full[slots[1]].bind
			edges = append(edges, joinEdge{a: a, aCol: slots[0] - ctxs[a].off, b: b, bCol: slots[1] - ctxs[b].off})
		default:
			residuals = append(residuals, &residual{refs: slices.Clone(refs), expr: conj})
		}
	}
	// A binding's filters are its run of the list sorted by binding, in
	// WHERE order.
	slices.SortStableFunc(filters, func(x, y filter) int { return x.bind - y.bind })
	for len(filters) > 0 {
		n := 1
		for n < len(filters) && filters[n].bind == filters[0].bind {
			n++
		}
		ctxs[filters[0].bind].filters, filters = filters[:n:n], filters[n:]
	}
	return edges, residuals, width, constTrue, nil
}

// plan is a FROM list as one left-deep chain of steps over a single frame
// of width columns: every binding's columns in FROM order (schema), after
// the enclosing query's for an EXISTS subquery, then the columns the
// EXISTS subqueries of its WHERE clause share.
type plan struct {
	chain
	schema  relSchema
	width   int
	empty   bool // a constant-false conjunct: the chain emits nothing
	ordered bool // the first step walks an ordered index in ORDER BY order
}

// planChain orders the bindings into a chain and chooses each one's step.
// An EXISTS subquery is such a chain, with the enclosing query's frame
// schema as outer: its bindings are placed before the first step (outer is
// nil at the top level). The greedy order is one step rule: a binding
// joined to a placed one by an edge, or reached by a key probe on its own
// literals, is a candidate at cost stepCost; the cheapest is placed, ties
// keeping FROM order. A binding that is neither would enter as a cross
// join costed by a guess, so it waits until no candidate is left (a
// disconnected join graph). The first step takes its own access path
// unless an edge joins it to a placed binding; every other step joins.
// Every residual runs at the first step after which it is decidable. With
// inOrder a single binding whose ORDER BY an ordered index satisfies walks
// that index (orderedPath).
func planChain(cat *engine.Catalog, outer relSchema, bindings []binding, s sqlparser.Select, inOrder bool, rec *planRecorder) (*plan, error) {
	ctxs, full, err := buildCtxs(outer, bindings)
	if err != nil {
		return nil, err
	}
	edges, residuals, width, constTrue, err := classifyWhere(cat, s.Where, full, ctxs)
	if err != nil {
		return nil, err
	}
	p := &plan{schema: full, width: width, empty: !constTrue}
	if p.empty {
		rec.record("", "empty", "constant-false predicate", 0)
		return p, nil
	}
	for _, r := range residuals {
		if r.semi == nil {
			if r.pred, err = compileExpr(r.expr, full); err != nil {
				return nil, err
			}
		}
	}

	placed := make([]bool, len(ctxs))
	for i := range len(ctxs) - len(bindings) {
		placed[i] = true
	}
	p.steps = make([]*step, 0, len(bindings))
	joined := make([]int, 0, len(edges))
	for range bindings {
		next, nextCost := -1, 0.0
		for _, all := range [2]bool{false, true} {
			for i := range ctxs {
				if placed[i] {
					continue
				}
				joined = joinedCols(i, edges, placed, joined[:0])
				if !all && len(joined) == 0 && !ctxs[i].pointwise() {
					continue
				}
				if c := ctxs[i].stepCost(joined); next < 0 || c < nextCost {
					next, nextCost = i, c
				}
			}
			if next >= 0 {
				break
			}
		}
		tc := &ctxs[next]
		var st *step
		if len(p.steps) == 0 && len(joinedCols(next, edges, placed, joined[:0])) == 0 {
			if inOrder && len(bindings) == 1 && len(residuals) == 0 {
				if ap := orderedPath(tc, s, full); ap != nil {
					tc.path, tc.chosen, p.ordered = *ap, true, true
				}
			}
			st, err = tc.pathStep(full)
		} else {
			st, err = tc.joinStep(next, edges, placed, ctxs, full)
		}
		if err != nil {
			return nil, err
		}
		placed[next] = true
	residuals:
		for _, r := range residuals {
			if r.done {
				continue
			}
			for b, used := range r.refs {
				if used && !placed[b] {
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
	p.frame = make([]val.Value, p.width)
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
		p, err := compileExpr(f.expr, full)
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

// joinStep joins the binding at FROM position bind to the placed ones
// through its edges: by index join when the probe bestProbe picks for the
// joined and literal columns is keyed by a joined one, otherwise by hash
// join (a cross join with no edges) over the rows its own access path
// collects once.
func (tc *tableCtx) joinStep(bind int, edges []joinEdge, placed []bool, ctxs []tableCtx, full relSchema) (*step, error) {
	t := tc.b.table
	joined := make(map[int]int) // column -> frame slot of a placed column equal to it
	var pairs [][2]int          // frame slots of equal columns: placed side, this binding's
	for i := range edges {
		c, other, otherCol := edges[i].from(bind)
		if other < 0 || !placed[other] {
			continue
		}
		left := ctxs[other].off + otherCol
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
				st.key[k], _ = tc.eq(c)
				st.keySlot[k] = -1
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
