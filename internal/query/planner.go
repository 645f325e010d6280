package query

import (
	"fmt"
	"slices"
	"strings"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// rowSet is a materialized intermediate relation.
type rowSet struct {
	schema relSchema
	rows   [][]val.Value
}

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
// semi-join (semi set, expr nil).
type residual struct {
	refs map[string]bool
	expr sqlparser.Expr
	semi *semiJoin
	done bool
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
	schema  relSchema         // single-table schema (qualified by alias)
	eqOn    map[int]val.Value // column position -> literal of a col = literal conjunct
	bounds  []rangeBound      // inequality conjuncts usable for range access
	filters []sqlparser.Expr  // all single-table conjuncts (includes eqOn/bounds)
	path    *accessPath       // chosen access path, lazily computed
	rec     *planRecorder     // EXPLAIN sink; nil when not explaining
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
)

func (k pathKind) String() string {
	switch k {
	case pathPK:
		return "pk probe"
	case pathEqProbe:
		return "eq probe"
	case pathRange:
		return "range walk"
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
	est            float64 // estimated rows fetched before residual filters
	cost           float64 // estimated work
}

// detail renders the path for EXPLAIN output.
func (p *accessPath) detail() string {
	var sb strings.Builder
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

// materialize produces the base table's filtered rows via the chosen
// access path.
func (tc *tableCtx) materialize() (*rowSet, error) {
	t := tc.b.table
	var preds []compiledExpr
	for _, f := range tc.filters {
		p, err := compileExpr(f, tc.schema)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	out := &rowSet{schema: tc.schema}
	emit := func(row []val.Value) (bool, error) {
		for _, p := range preds {
			ok, err := truthy(p, row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		out.rows = append(out.rows, row)
		return true, nil
	}
	ap := tc.accessPath()
	switch ap.kind {
	case pathPK:
		if id, ok := t.LookupPK(ap.pkVal); ok {
			if _, err := emit(t.Get(id)); err != nil {
				return nil, err
			}
		}
	case pathEqProbe:
		for _, id := range ap.idx.Lookup(ap.eqVals) {
			if _, err := emit(t.Get(id)); err != nil {
				return nil, err
			}
		}
	case pathRange:
		var walkErr error
		ap.idx.AscendRange(ap.lo, ap.loIncl, ap.hi, ap.hiIncl, func(_ []val.Value, ids []engine.RowID) bool {
			for _, id := range ids {
				if _, err := emit(t.Get(id)); err != nil {
					walkErr = err
					return false
				}
			}
			return true
		})
		if walkErr != nil {
			return nil, walkErr
		}
	default:
		var scanErr error
		t.Scan(func(_ engine.RowID, row []val.Value) bool {
			if _, err := emit(row); err != nil {
				scanErr = err
				return false
			}
			return true
		})
		if scanErr != nil {
			return nil, scanErr
		}
	}
	tc.rec.record(tc.b.alias, ap.kind.String(), ap.detail(), len(out.rows))
	return out, nil
}

// buildCtxs creates the per-binding planning state for a FROM list.
func buildCtxs(bindings []binding, rec *planRecorder) (map[string]*tableCtx, []string, relSchema, error) {
	full := relSchema{}
	ctxs := make(map[string]*tableCtx, len(bindings))
	var order []string
	for _, b := range bindings {
		if _, dup := ctxs[b.alias]; dup {
			return nil, nil, nil, fmt.Errorf("query: duplicate table binding %q", b.alias)
		}
		tc := &tableCtx{b: b, schema: tableSchema(b), rec: rec}
		ctxs[b.alias] = tc
		order = append(order, b.alias)
		full = append(full, tc.schema...)
	}
	return ctxs, order, full, nil
}

// classifyWhere splits a WHERE conjunction into per-binding filters
// (recording const-eq and range conjuncts on their tableCtx), join edges,
// residual predicates (EXISTS conjuncts among them, planned here against
// cat), and a constant-truth verdict.
func classifyWhere(cat *engine.Catalog, where sqlparser.Expr, full relSchema, ctxs map[string]*tableCtx) (edges []*joinEdge, residuals []*residual, constTrue bool, err error) {
	constTrue = true
	if where == nil {
		return nil, nil, true, nil
	}
	for _, conj := range splitAnd(where, nil) {
		if ex, ok := conj.(sqlparser.Exists); ok {
			sj, err := planSemiJoin(cat, ex, full)
			if err != nil {
				return nil, nil, false, err
			}
			residuals = append(residuals, &residual{refs: sj.refs, semi: sj})
			continue
		}
		refs := make(map[string]bool)
		if err := exprRefs(conj, full, refs); err != nil {
			return nil, nil, false, err
		}
		switch len(refs) {
		case 0:
			p, err := compileExpr(conj, relSchema{})
			if err != nil {
				return nil, nil, false, err
			}
			ok, err := truthy(p, nil)
			if err != nil {
				return nil, nil, false, err
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
	return edges, residuals, constTrue, nil
}

// planJoins materializes and joins all FROM bindings, applying pushdown,
// join edges, and residual conjuncts. It returns the joined row set. When
// rec is non-nil every access-path and join decision is recorded for
// EXPLAIN output.
func planJoins(cat *engine.Catalog, bindings []binding, where sqlparser.Expr, rec *planRecorder) (*rowSet, error) {
	ctxs, order, full, err := buildCtxs(bindings, rec)
	if err != nil {
		return nil, err
	}
	edges, residuals, constTrue, err := classifyWhere(cat, where, full, ctxs)
	if err != nil {
		return nil, err
	}
	if !constTrue {
		// A constant-false conjunct empties the result.
		rec.record("", "empty", "constant-false predicate", 0)
		return &rowSet{schema: full}, nil
	}

	placed := make(map[string]bool)
	applyResiduals := func(rs *rowSet) (*rowSet, error) {
		for _, r := range residuals {
			if r.done {
				continue
			}
			ready := true
			for a := range r.refs {
				if !placed[a] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			r.done = true
			if r.semi != nil {
				var err error
				if rs, err = r.semi.filter(rs, rec); err != nil {
					return nil, err
				}
				continue
			}
			p, err := compileExpr(r.expr, rs.schema)
			if err != nil {
				return nil, err
			}
			kept := rs.rows[:0:0]
			for _, row := range rs.rows {
				ok, err := truthy(p, row)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, row)
				}
			}
			rs = &rowSet{schema: rs.schema, rows: kept}
		}
		return rs, nil
	}

	// Greedy left-deep order, the step rule of the semi-join's probe chain:
	// a binding joined to a placed one by an edge, or reached by a key probe
	// on its own literals, is a candidate at cost stepCost; the cheapest is
	// placed, ties keeping FROM order. A binding that is neither would enter
	// as a cross join costed by a guess, so it waits until no candidate is
	// left (a disconnected join graph).
	var cur *rowSet
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
		if cur == nil {
			cur, err = tc.materialize()
		} else {
			cur, err = joinNext(cur, tc, edges, placed)
		}
		if err != nil {
			return nil, err
		}
		placed[tc.b.alias] = true
		if cur, err = applyResiduals(cur); err != nil {
			return nil, err
		}
	}
	for _, r := range residuals {
		if !r.done {
			return nil, fmt.Errorf("query: internal error: a residual predicate was never applied")
		}
	}
	return cur, nil
}

// joinPair maps one equi-join edge to a left row offset and a right table
// column position.
type joinPair struct{ leftIdx, rightIdx int }

// joinNext joins the accumulated row set with one more base table through
// its edges to the placed bindings: by index nested loop when the probe
// bestProbe picks for the joined and literal columns is keyed by a joined
// one, otherwise by hash join (a cross product with no edges) over the
// table's own access path.
func joinNext(cur *rowSet, tc *tableCtx, edges []*joinEdge, placed map[string]bool) (*rowSet, error) {
	t := tc.b.table
	var pairs []joinPair
	for _, e := range edges {
		col, other, otherCol := e.from(tc.b.alias)
		if !placed[other] {
			continue
		}
		li, err := cur.schema.find(sqlparser.ColumnRef{Table: other, Column: otherCol})
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, joinPair{leftIdx: li, rightIdx: t.Schema().ColumnIndex(col)})
	}

	out := &rowSet{schema: append(append(relSchema{}, cur.schema...), tc.schema...)}
	emit := func(l, r []val.Value) {
		row := make([]val.Value, 0, len(l)+len(r))
		row = append(row, l...)
		row = append(row, r...)
		out.rows = append(out.rows, row)
	}
	if len(pairs) == 0 {
		rs, err := tc.materialize()
		if err != nil {
			return nil, err
		}
		for _, l := range cur.rows {
			for _, r := range rs.rows {
				emit(l, r)
			}
		}
		tc.rec.record(tc.b.alias, "cross join", "", len(out.rows))
		return out, nil
	}

	ok, detail, err := indexJoin(cur, tc, pairs, emit)
	if err != nil {
		return nil, err
	}
	if ok {
		tc.rec.record(tc.b.alias, "index join", detail, len(out.rows))
		return out, nil
	}
	rs, err := tc.materialize()
	if err != nil {
		return nil, err
	}
	// Hash join: build on the new (right) side, probe with cur. Buckets are
	// keyed by the 64-bit composite hash of the join columns; the probe
	// re-verifies value equality so hash collisions never join unequal rows.
	build := make(map[uint64][][]val.Value, len(rs.rows))
	for _, r := range rs.rows {
		h := val.HashSeed()
		for _, p := range pairs {
			h = val.Hash64(h, r[p.rightIdx])
		}
		build[h] = append(build[h], r)
	}
	for _, l := range cur.rows {
		h := val.HashSeed()
		for _, p := range pairs {
			h = val.Hash64(h, l[p.leftIdx])
		}
	probe:
		for _, r := range build[h] {
			for _, p := range pairs {
				if !val.Equal(l[p.leftIdx], r[p.rightIdx]) {
					continue probe
				}
			}
			emit(l, r)
		}
	}
	tc.rec.record(tc.b.alias, "hash join", "", len(out.rows))
	return out, nil
}

// indexJoin runs an index nested-loop join, calling emit for every joined
// row pair, when the probe bestProbe picks for the joined and literal
// columns is keyed by at least one joined column; a probe on literals alone
// is the table's own access path, which the caller hash joins instead. It
// reports ok=false then. The detail string names the probe for EXPLAIN.
func indexJoin(cur *rowSet, tc *tableCtx, pairs []joinPair, emit func(l, r []val.Value)) (bool, string, error) {
	t := tc.b.table
	joined := make(map[int]int, len(pairs)) // right column -> left offset
	for _, p := range pairs {
		joined[p.rightIdx] = p.leftIdx
	}
	keyCols, idx, _ := bestProbe(t, func(c int) bool {
		_, ok := joined[c]
		return ok || tc.literal(c)
	})
	if !slices.ContainsFunc(keyCols, func(c int) bool { _, ok := joined[c]; return ok }) {
		return false, "", nil
	}
	detail := "pk"
	if idx != nil {
		detail = "index=" + idx.Name()
	}
	// Leftover single-table filters and join columns the key does not
	// cover are checked on every fetched row.
	var preds []compiledExpr
	for _, f := range tc.filters {
		p, err := compileExpr(f, tc.schema)
		if err != nil {
			return false, "", err
		}
		preds = append(preds, p)
	}
	key := make([]val.Value, len(keyCols))
	var one [1]engine.RowID
	for _, l := range cur.rows {
		for i, c := range keyCols {
			if off, ok := joined[c]; ok {
				key[i] = l[off]
			} else {
				key[i] = tc.eqOn[c]
			}
		}
		ids := one[:0]
		if idx != nil {
			ids = idx.Lookup(key)
		} else if id, found := t.LookupPK(key[0]); found {
			ids = append(ids, id)
		}
	rows:
		for _, id := range ids {
			r := t.Get(id)
			for _, p := range preds {
				ok, err := truthy(p, r)
				if err != nil {
					return false, "", err
				}
				if !ok {
					continue rows
				}
			}
			for _, pr := range pairs {
				if !val.Equal(l[pr.leftIdx], r[pr.rightIdx]) {
					continue rows
				}
			}
			emit(l, r)
		}
	}
	return true, detail, nil
}
