package query

import (
	"fmt"
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
	consumed   bool
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

// constEq is a column = literal conjunct usable for index access.
type constEq struct {
	col string
	v   val.Value
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
	b        binding
	schema   relSchema // single-table schema (qualified by alias)
	constEqs []constEq
	bounds   []rangeBound     // inequality conjuncts usable for range access
	filters  []sqlparser.Expr // all single-table conjuncts (includes constEqs/bounds)
	mat      *rowSet          // materialized filtered rows, lazily computed
	path     *accessPath      // chosen access path, lazily computed
	rec      *planRecorder    // EXPLAIN sink; nil when not explaining
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

// accessPath chooses the cheapest candidate path for the binding, caching
// the result. Candidates are costed from the exact distinct-key counts the
// indexes maintain (Index.Len, ordered-index range ranks) and the table
// cardinality; ties between equally cheap index probes break toward the
// more selective index (higher Len), then toward the wider one.
func (tc *tableCtx) accessPath() *accessPath {
	if tc.path != nil {
		return tc.path
	}
	t := tc.b.table
	sch := t.Schema()
	n := float64(t.Len())
	best := &accessPath{kind: pathScan, est: n, cost: n}

	better := func(p *accessPath) bool {
		if p.cost != best.cost {
			return p.cost < best.cost
		}
		if best.kind == pathScan {
			return true
		}
		pl, bl := 0, 0
		if p.idx != nil {
			pl = p.idx.Len()
		}
		if best.idx != nil {
			bl = best.idx.Len()
		}
		if pl != bl {
			return pl > bl // more distinct keys = more selective
		}
		if p.idx != nil && best.idx != nil {
			return len(p.idx.Cols()) > len(best.idx.Cols())
		}
		return false
	}
	consider := func(p *accessPath) {
		if better(p) {
			best = p
		}
	}

	eqOn := make(map[int]val.Value, len(tc.constEqs))
	for _, ce := range tc.constEqs {
		eqOn[sch.ColumnIndex(ce.col)] = ce.v
	}
	if pk := t.PKCol(); pk >= 0 {
		if v, ok := eqOn[pk]; ok {
			consider(&accessPath{kind: pathPK, pkVal: v, est: 1, cost: 1})
		}
	}
	for _, idx := range t.Indexes() {
		cols := idx.Cols()
		perKey := n
		if k := idx.Len(); k > 0 {
			perKey = n / float64(k)
		}
		// Longest prefix of the index columns bound by const-eq conjuncts.
		p := 0
		for p < len(cols) {
			if _, ok := eqOn[cols[p]]; !ok {
				break
			}
			p++
		}
		if p == len(cols) {
			vals := make([]val.Value, len(cols))
			for i, c := range cols {
				vals[i] = eqOn[c]
			}
			consider(&accessPath{kind: pathEqProbe, idx: idx, eqVals: vals, est: perKey, cost: perKey})
			continue
		}
		if !idx.Ordered() {
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
			prefix[i] = eqOn[cols[i]]
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
		ap.est = keys * perKey
		ap.cost = rangeWalkPenalty * ap.est
		consider(ap)
	}
	tc.path = best
	return best
}

// estimate guesses the post-filter cardinality of a base table.
func (tc *tableCtx) estimate() int {
	if tc.mat != nil {
		return len(tc.mat.rows)
	}
	n := tc.b.table.Len()
	switch p := tc.accessPath(); p.kind {
	case pathPK:
		return 1
	case pathEqProbe, pathRange:
		return int(p.est) + 1
	default:
		if len(tc.constEqs) > 0 {
			return n/3 + 1
		}
		if len(tc.filters) > 0 {
			return n/2 + 1
		}
		return n
	}
}

// pointwise reports whether the chosen path is a point-ish lookup cheap
// enough to materialize eagerly during singleton folding.
func (tc *tableCtx) pointwise() bool {
	switch tc.accessPath().kind {
	case pathPK, pathEqProbe:
		return true
	}
	return false
}

// materialize produces the base table's filtered rows via the chosen
// access path and caches the result.
func (tc *tableCtx) materialize() (*rowSet, error) {
	if tc.mat != nil {
		return tc.mat, nil
	}
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
	tc.mat = out
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
					tc.constEqs = append(tc.constEqs, constEq{col: full[i].name, v: v})
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

	// Greedy left-deep join order: start from the cheapest binding; then
	// repeatedly add the cheapest binding connected by a join edge, falling
	// back to a cross product when the join graph is disconnected.
	joined := make(map[string]bool)
	pick := func(candidates []string) string {
		best, bestCard := "", int(^uint(0)>>1)
		for _, a := range candidates {
			if c := ctxs[a].estimate(); c < bestCard || best == "" {
				best, bestCard = a, c
			}
		}
		return best
	}
	remaining := append([]string(nil), order...)
	removeRemaining := func(alias string) {
		for i, a := range remaining {
			if a == alias {
				remaining = append(remaining[:i], remaining[i+1:]...)
				return
			}
		}
	}

	start := pick(remaining)
	cur, err := ctxs[start].materialize()
	if err != nil {
		return nil, err
	}
	joined[start] = true
	removeRemaining(start)

	// Eagerly fold in near-singleton tables (point lookups on constants):
	// crossing with at most a couple of rows is free and seeds join edges
	// that keep later fanouts bound — e.g. the E-chain anchors of
	// translated belief queries, which must join before the much larger V
	// tables. Tables whose constant predicates are fully index-covered are
	// materialized first so the estimate is exact.
	for _, a := range remaining {
		tc := ctxs[a]
		if tc.mat != nil || len(tc.constEqs) == 0 {
			continue
		}
		if tc.pointwise() {
			if _, err := tc.materialize(); err != nil {
				return nil, err
			}
		}
	}
	for {
		folded := false
		for _, a := range append([]string(nil), remaining...) {
			if ctxs[a].mat == nil || ctxs[a].estimate() > 2 {
				continue
			}
			var active []*joinEdge
			for _, e := range edges {
				if e.consumed {
					continue
				}
				if (e.a == a && joined[e.b]) || (e.b == a && joined[e.a]) {
					active = append(active, e)
					e.consumed = true
				}
			}
			cur, err = joinNext(cur, ctxs[a], active)
			if err != nil {
				return nil, err
			}
			joined[a] = true
			removeRemaining(a)
			folded = true
		}
		if !folded {
			break
		}
	}

	applyResiduals := func(rs *rowSet) (*rowSet, error) {
		for _, r := range residuals {
			if r.done {
				continue
			}
			ready := true
			for a := range r.refs {
				if !joined[a] {
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
	cur, err = applyResiduals(cur)
	if err != nil {
		return nil, err
	}

	// fanout estimates the per-left-row output of joining candidate a next:
	// near 1 for PK or selective index joins, the filtered table size for
	// hash joins.
	fanout := func(a string) float64 {
		tc := ctxs[a]
		sch := tc.b.table.Schema()
		joinCols := make(map[int]bool)
		for _, e := range edges {
			if e.consumed {
				continue
			}
			if e.a == a && joined[e.b] {
				joinCols[sch.ColumnIndex(e.aCol)] = true
			} else if e.b == a && joined[e.a] {
				joinCols[sch.ColumnIndex(e.bCol)] = true
			}
		}
		if pk := tc.b.table.PKCol(); pk >= 0 && joinCols[pk] {
			return 1
		}
		constCols := make(map[int]bool)
		for _, ce := range tc.constEqs {
			constCols[sch.ColumnIndex(ce.col)] = true
		}
		best := 0
		for _, idx := range tc.b.table.Indexes() {
			usable, hasJoin := true, false
			for _, c := range idx.Cols() {
				switch {
				case joinCols[c]:
					hasJoin = true
				case constCols[c]:
				default:
					usable = false
				}
			}
			if usable && hasJoin && idx.Len() > best {
				best = idx.Len()
			}
		}
		if best > 0 {
			return float64(tc.b.table.Len()) / float64(best)
		}
		return float64(tc.estimate())
	}

	for len(remaining) > 0 {
		var connected []string
		for _, a := range remaining {
			for _, e := range edges {
				if e.consumed {
					continue
				}
				if (e.a == a && joined[e.b]) || (e.b == a && joined[e.a]) {
					connected = append(connected, a)
					break
				}
			}
		}
		var next string
		if len(connected) > 0 {
			next = connected[0]
			bestF := fanout(next)
			for _, a := range connected[1:] {
				if f := fanout(a); f < bestF {
					next, bestF = a, f
				}
			}
		} else {
			next = pick(remaining)
		}
		// Collect the edges that join next to the current set.
		var active []*joinEdge
		for _, e := range edges {
			if e.consumed {
				continue
			}
			if (e.a == next && joined[e.b]) || (e.b == next && joined[e.a]) {
				active = append(active, e)
				e.consumed = true
			}
		}
		cur, err = joinNext(cur, ctxs[next], active)
		if err != nil {
			return nil, err
		}
		joined[next] = true
		removeRemaining(next)
		cur, err = applyResiduals(cur)
		if err != nil {
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

// joinNext joins the accumulated row set with one more base table using the
// given equi-join edges: by index nested loop when the new table has a
// matching index, otherwise by hash join (or cross product with no edges).
func joinNext(cur *rowSet, tc *tableCtx, edges []*joinEdge) (*rowSet, error) {
	outSchema := append(append(relSchema{}, cur.schema...), tc.schema...)
	pairs := make([]joinPair, 0, len(edges))
	sch := tc.b.table.Schema()
	for _, e := range edges {
		leftAlias, leftCol, rightCol := e.a, e.aCol, e.bCol
		if e.a == tc.b.alias {
			leftAlias, leftCol, rightCol = e.b, e.bCol, e.aCol
		}
		li, err := cur.schema.find(sqlparser.ColumnRef{Table: leftAlias, Column: leftCol})
		if err != nil {
			return nil, err
		}
		ri := sch.ColumnIndex(rightCol)
		if ri < 0 {
			return nil, fmt.Errorf("query: no column %s in %s", rightCol, tc.b.alias)
		}
		pairs = append(pairs, joinPair{leftIdx: li, rightIdx: ri})
	}

	out := &rowSet{schema: outSchema}
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

	// Index nested-loop join: usable when the table has not yet been
	// materialized and an index (or the primary key) covers a subset of the
	// join/const columns.
	if tc.mat == nil {
		ok, detail, err := indexJoin(cur, tc, pairs, emit)
		if err != nil {
			return nil, err
		}
		if ok {
			tc.rec.record(tc.b.alias, "index join", detail, len(out.rows))
			return out, nil
		}
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

// indexJoin attempts an index nested-loop join, calling emit for every
// joined row pair; it reports ok=false when no suitable index exists. The
// detail string names the probe structure for EXPLAIN.
func indexJoin(cur *rowSet, tc *tableCtx, pairs []joinPair, emit func(l, r []val.Value)) (bool, string, error) {
	t := tc.b.table
	sch := t.Schema()
	joinCols := make(map[int]int) // right col -> left offset
	for _, p := range pairs {
		joinCols[p.rightIdx] = p.leftIdx
	}
	constCols := make(map[int]val.Value)
	for _, ce := range tc.constEqs {
		constCols[sch.ColumnIndex(ce.col)] = ce.v
	}
	// Compile leftover single-table filters to apply after the lookup.
	var preds []compiledExpr
	for _, f := range tc.filters {
		p, err := compileExpr(f, tc.schema)
		if err != nil {
			return false, "", err
		}
		preds = append(preds, p)
	}
	checkEmit := func(l, r []val.Value) (bool, error) {
		for _, p := range preds {
			ok, err := truthy(p, r)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		// Verify join columns not covered by the index.
		for _, pr := range pairs {
			if !val.Equal(l[pr.leftIdx], r[pr.rightIdx]) {
				return false, nil
			}
		}
		emit(l, r)
		return true, nil
	}

	// Primary key join when the pk column participates in the join.
	if pk := t.PKCol(); pk >= 0 {
		if leftOff, ok := joinCols[pk]; ok {
			for _, l := range cur.rows {
				if id, found := t.LookupPK(l[leftOff]); found {
					if _, err := checkEmit(l, t.Get(id)); err != nil {
						return false, "", err
					}
				}
			}
			return true, "pk", nil
		}
	}
	// Secondary index whose columns are all join or const columns; prefer
	// the most selective one (smallest expected bucket: highest distinct
	// key count), breaking ties toward wider indexes.
	var best *engine.Index
	for _, idx := range t.Indexes() {
		usable, hasJoin := true, false
		for _, c := range idx.Cols() {
			if _, ok := joinCols[c]; ok {
				hasJoin = true
				continue
			}
			if _, ok := constCols[c]; ok {
				continue
			}
			usable = false
			break
		}
		if !usable || !hasJoin {
			continue
		}
		if best == nil || idx.Len() > best.Len() ||
			(idx.Len() == best.Len() && len(idx.Cols()) > len(best.Cols())) {
			best = idx
		}
	}
	if best == nil {
		return false, "", nil
	}
	vals := make([]val.Value, len(best.Cols()))
	for _, l := range cur.rows {
		for i, c := range best.Cols() {
			if off, ok := joinCols[c]; ok {
				vals[i] = l[off]
			} else {
				vals[i] = constCols[c]
			}
		}
		for _, id := range best.Lookup(vals) {
			if _, err := checkEmit(l, t.Get(id)); err != nil {
				return false, "", err
			}
		}
	}
	return true, "index=" + best.Name(), nil
}
