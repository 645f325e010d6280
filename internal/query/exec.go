package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// Result is the outcome of running one statement.
type Result struct {
	Columns  []string
	Rows     [][]val.Value
	Affected int
}

// Run plans and executes one parsed statement against the catalog: a
// SELECT, an EXPLAIN or a CREATE [ORDERED] INDEX. The tables themselves
// are written only by the belief store's update algorithms; every other
// statement is unsupported here. The caller is responsible for
// serializing access (see store.Store.SQL).
func Run(cat *engine.Catalog, stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case sqlparser.CreateIndex:
		return runCreateIndex(cat, s)
	case sqlparser.Select:
		return runSelect(cat, s)
	case sqlparser.Explain:
		return runExplain(cat, s)
	default:
		return nil, fmt.Errorf("query: unsupported statement %T", stmt)
	}
}

func runCreateIndex(cat *engine.Catalog, s sqlparser.CreateIndex) (*Result, error) {
	t := cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	var err error
	if s.Ordered {
		_, err = t.CreateOrderedIndex(s.Name, s.Cols)
	} else {
		_, err = t.CreateIndex(s.Name, s.Cols)
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func runSelect(cat *engine.Catalog, s sqlparser.Select) (*Result, error) {
	return runSelectPlan(cat, s, nil)
}

// runExplain executes the query with a plan recorder attached and returns
// the recorded access-path decisions instead of the query result. EXPLAIN
// runs the real chain, so each step reports the rows it actually produced
// (and a LIMIT that stops the chain early shows as fewer).
func runExplain(cat *engine.Catalog, s sqlparser.Explain) (*Result, error) {
	rec := &planRecorder{}
	if _, err := runSelectPlan(cat, s.Query, rec); err != nil {
		return nil, err
	}
	return rec.result(), nil
}

func runSelectPlan(cat *engine.Catalog, s sqlparser.Select, rec *planRecorder) (*Result, error) {
	bindings, err := fromBindings(cat, s.From)
	if err != nil {
		return nil, err
	}

	items, err := expandStars(s.Items, bindings)
	if err != nil {
		return nil, err
	}

	hasAgg := len(s.GroupBy) > 0
	for _, it := range items {
		if ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	p, err := planChain(cat, nil, bindings, s, !hasAgg && !s.Distinct && len(s.OrderBy) > 0, rec)
	if err != nil {
		return nil, err
	}
	var out *Result
	if hasAgg {
		out, err = aggregate(s, items, p, rec)
	} else {
		out, err = project(s, items, p, rec)
	}
	if err != nil {
		return nil, err
	}
	if s.Limit >= 0 && len(out.Rows) > s.Limit {
		out.Rows = out.Rows[:s.Limit]
	}
	return out, nil
}

// expandStars replaces * and t.* items with explicit column references in
// FROM-declaration order.
func expandStars(items []sqlparser.SelectItem, bindings []binding) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range items {
		switch {
		case it.Star:
			for _, b := range bindings {
				for _, c := range b.table.Schema().Columns {
					out = append(out, sqlparser.SelectItem{Expr: sqlparser.ColumnRef{Table: b.alias, Column: c.Name}})
				}
			}
		case it.TableStar != "":
			found := false
			for _, b := range bindings {
				if b.alias == it.TableStar {
					for _, c := range b.table.Schema().Columns {
						out = append(out, sqlparser.SelectItem{Expr: sqlparser.ColumnRef{Table: b.alias, Column: c.Name}})
					}
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("query: unknown table %q in %s.*", it.TableStar, it.TableStar)
			}
		default:
			out = append(out, it)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query: empty select list")
	}
	return out, nil
}

// itemName derives the output column name of a select item.
func itemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(sqlparser.ColumnRef); ok {
		return cr.Column
	}
	return it.Expr.String()
}

// slab hands out capacity-capped rows of width w from chunks that double
// with the answer (1, 2, 4, ... rows, at most 256 a chunk), so a one-row
// answer allocates one row and a large one a few dozen chunks.
type slab struct {
	w, n int
	buf  []val.Value
}

func (s *slab) row() []val.Value {
	if len(s.buf) < s.w {
		s.n = min(max(2*s.n, 1), 256)
		s.buf = make([]val.Value, s.n*s.w)
	}
	r := s.buf[:s.w:s.w]
	s.buf = s.buf[s.w:]
	return r
}

// rowIndex finds rows by value among the rows added so far: rows that hash
// together are compared for real equality, so colliding distinct rows stay
// apart. The rows live in the caller's slice, in the order added.
type rowIndex struct {
	head map[uint64]int // hash -> 1 + position of the last row added with it
	next []int          // per row: 1 + position of the previous one with its hash
}

// find returns the position of the row of rows Equal to r, or -1, and r's
// hash.
func (x *rowIndex) find(rows [][]val.Value, r []val.Value) (int, uint64) {
	h := val.HashRow(val.HashSeed(), r)
	for i := x.head[h]; i > 0; i = x.next[i-1] {
		if val.RowsEqual(rows[i-1], r) {
			return i - 1, h
		}
	}
	return -1, h
}

// add records that the next row of the caller's slice hashes to h.
func (x *rowIndex) add(h uint64) {
	if x.head == nil {
		x.head = make(map[uint64]int)
	}
	x.next = append(x.next, x.head[h])
	x.head[h] = len(x.next)
}

// orderKey is one compiled ORDER BY item: over the frame (onFrame) or over
// an output row.
type orderKey struct {
	e       compiledExpr
	onFrame bool
	desc    bool
}

// outputKey resolves an ORDER BY expression once source rows are gone
// (after DISTINCT or aggregation): against the output columns, else by
// matching it textually against a select item (covers ORDER BY u.name over
// aggregated output).
func outputKey(e sqlparser.Expr, items []sqlparser.SelectItem, cols []string) (compiledExpr, error) {
	schema := make(relSchema, len(cols))
	for i, n := range cols {
		schema[i] = colID{name: n}
	}
	ce, err := compileExpr(e, schema)
	if err == nil {
		return ce, nil
	}
	want := e.String()
	for i, it := range items {
		if it.Expr != nil && it.Expr.String() == want {
			return func(row []val.Value) (val.Value, error) { return row[i], nil }, nil
		}
	}
	return nil, err
}

// evalKeys evaluates the ORDER BY keys of one output row into dst.
func evalKeys(keys []orderKey, frame, row, dst []val.Value) error {
	for j, k := range keys {
		in := row
		if k.onFrame {
			in = frame
		}
		v, err := k.e(in)
		if err != nil {
			return err
		}
		dst[j] = v
	}
	return nil
}

// sortByKeys stable-sorts rows by their key rows; keyRows nil evaluates
// keys, which read output rows only, on every row first. Incomparable or
// equal keys defer to the next key.
func sortByKeys(rows, keyRows [][]val.Value, keys []orderKey) error {
	if keyRows == nil {
		s := slab{w: len(keys)}
		keyRows = make([][]val.Value, len(rows))
		for i, r := range rows {
			keyRows[i] = s.row()
			if err := evalKeys(keys, nil, r, keyRows[i]); err != nil {
				return err
			}
		}
	}
	sort.Stable(keyedRows{rows, keyRows, keys})
	return nil
}

type keyedRows struct {
	rows, keyRows [][]val.Value
	keys          []orderKey
}

func (k keyedRows) Len() int { return len(k.rows) }

func (k keyedRows) Swap(a, b int) {
	k.rows[a], k.rows[b] = k.rows[b], k.rows[a]
	k.keyRows[a], k.keyRows[b] = k.keyRows[b], k.keyRows[a]
}

func (k keyedRows) Less(a, b int) bool {
	for j, key := range k.keys {
		if cmp, ok := val.Compare(k.keyRows[a][j], k.keyRows[b][j]); ok && cmp != 0 {
			return (cmp < 0) != key.desc
		}
	}
	return false
}

// projector is the sink of a query without aggregates. It evaluates the
// select list on every frame the chain emits, keeps first occurrences under
// DISTINCT, evaluates ORDER BY keys beside each row it keeps (a key may
// read columns the select list drops), and stops the chain at a LIMIT when
// no sort follows, so the first limit rows in execution order are final.
type projector struct {
	evals    []compiledExpr
	keys     []orderKey
	distinct *rowIndex // nil without DISTINCT
	limit    int       // stop once this many rows are kept; -1 never
	rows     [][]val.Value
	keyRows  [][]val.Value
	out      slab
	keyOut   slab
	scratch  []val.Value
}

func (p *projector) consume(frame []val.Value) (bool, error) {
	row := p.scratch
	if p.distinct == nil {
		row = p.out.row()
	}
	for i, ce := range p.evals {
		v, err := ce(frame)
		if err != nil {
			return false, err
		}
		row[i] = v
	}
	if p.distinct != nil {
		i, h := p.distinct.find(p.rows, row)
		if i >= 0 {
			return false, nil
		}
		row = p.out.row()
		copy(row, p.scratch)
		p.distinct.add(h)
	}
	p.rows = append(p.rows, row)
	if p.keyOut.w > 0 {
		k := p.keyOut.row()
		if err := evalKeys(p.keys, frame, row, k); err != nil {
			return false, err
		}
		p.keyRows = append(p.keyRows, k)
	}
	return p.limit >= 0 && len(p.rows) >= p.limit, nil
}

// project runs the plan into a projector and orders its rows.
func project(s sqlparser.Select, items []sqlparser.SelectItem, p *plan, rec *planRecorder) (*Result, error) {
	out := &Result{Columns: make([]string, len(items))}
	pr := &projector{evals: make([]compiledExpr, len(items)), limit: -1, rows: [][]val.Value{}, out: slab{w: len(items)}}
	for i, it := range items {
		ce, err := compileExpr(it.Expr, p.schema)
		if err != nil {
			return nil, err
		}
		pr.evals[i], out.Columns[i] = ce, itemName(it)
	}
	// Without DISTINCT an ORDER BY item may read the frame, so non-projected
	// columns can be sorted on; otherwise it reads the output row. An
	// ordered walk needs no sort, and without one a LIMIT stops the chain.
	sorted := len(s.OrderBy) > 0 && !p.ordered
	if !sorted {
		pr.limit = s.Limit
	}
	for i := 0; sorted && i < len(s.OrderBy); i++ {
		k := orderKey{desc: s.OrderBy[i].Desc}
		var err error
		if !s.Distinct {
			k.e, err = compileExpr(s.OrderBy[i].Expr, p.schema)
			k.onFrame = err == nil
		}
		if !k.onFrame {
			if k.e, err = outputKey(s.OrderBy[i].Expr, items, out.Columns); err != nil {
				return nil, err
			}
		}
		pr.keys = append(pr.keys, k)
	}
	if s.Distinct {
		pr.distinct, pr.scratch = &rowIndex{}, make([]val.Value, len(items))
	} else {
		pr.keyOut.w = len(pr.keys)
	}
	if err := p.exec(pr.consume, rec); err != nil {
		return nil, err
	}
	if sorted {
		if err := sortByKeys(pr.rows, pr.keyRows, pr.keys); err != nil {
			return nil, err
		}
	}
	out.Rows = pr.rows
	return out, nil
}

// aggSpec describes one aggregate call found in the select list.
type aggSpec struct {
	fn   string // COUNT, SUM, MIN, MAX, AVG
	star bool
	arg  compiledExpr
}

// aggCtx carries the per-group aggregate values into compiled expressions.
type aggCtx struct{ vals []val.Value }

// compileWithAggs compiles an expression, replacing aggregate calls with
// reads from ctx.vals and registering their specs.
func compileWithAggs(e sqlparser.Expr, schema relSchema, ctx *aggCtx, specs *[]aggSpec) (compiledExpr, error) {
	if fc, ok := e.(sqlparser.FuncCall); ok && isAggName(fc.Name) {
		spec := aggSpec{fn: strings.ToUpper(fc.Name), star: fc.Star}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, fmt.Errorf("query: %s takes exactly one argument", fc.Name)
			}
			if ContainsAggregate(fc.Args[0]) {
				return nil, fmt.Errorf("query: nested aggregates are not supported")
			}
			arg, err := compileExpr(fc.Args[0], schema)
			if err != nil {
				return nil, err
			}
			spec.arg = arg
		} else if spec.fn != "COUNT" {
			return nil, fmt.Errorf("query: %s(*) is not supported", fc.Name)
		}
		i := len(*specs)
		*specs = append(*specs, spec)
		return func([]val.Value) (val.Value, error) { return ctx.vals[i], nil }, nil
	}
	switch ex := e.(type) {
	case sqlparser.BinaryExpr:
		l, err := compileWithAggs(ex.L, schema, ctx, specs)
		if err != nil {
			return nil, err
		}
		r, err := compileWithAggs(ex.R, schema, ctx, specs)
		if err != nil {
			return nil, err
		}
		return compileBinary(ex.Op, l, r)
	case sqlparser.UnaryExpr:
		inner, err := compileWithAggs(ex.X, schema, ctx, specs)
		if err != nil {
			return nil, err
		}
		return compileUnaryOn(ex.Op, inner)
	case sqlparser.IsNull:
		inner, err := compileWithAggs(ex.X, schema, ctx, specs)
		if err != nil {
			return nil, err
		}
		neg := ex.Negate
		return func(row []val.Value) (val.Value, error) {
			v, err := inner(row)
			if err != nil {
				return val.Null(), err
			}
			return val.Bool(v.IsNull() != neg), nil
		}, nil
	default:
		return compileExpr(e, schema)
	}
}

// compileUnaryOn applies a unary operator to an already-compiled operand.
func compileUnaryOn(op string, x compiledExpr) (compiledExpr, error) {
	switch op {
	case "NOT":
		return func(row []val.Value) (val.Value, error) {
			v, err := x(row)
			if err != nil {
				return val.Null(), err
			}
			if v.IsNull() {
				return val.Bool(false), nil
			}
			if v.Kind() != val.KindBool {
				return val.Null(), fmt.Errorf("query: NOT applied to %s", v.Kind())
			}
			return val.Bool(!v.AsBool()), nil
		}, nil
	case "-":
		return func(row []val.Value) (val.Value, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.Kind() {
			case val.KindInt:
				return val.Int(-v.AsInt()), nil
			case val.KindFloat:
				return val.Float(-v.AsFloat()), nil
			}
			return val.Null(), fmt.Errorf("query: unary minus on %s", v.Kind())
		}, nil
	}
	return nil, fmt.Errorf("query: unknown unary op %q", op)
}

// grouper is the sink of a query with aggregates: it folds every frame the
// chain emits into its group, keyed by the GROUP BY values, and copies one
// representative frame per new group for the select list's plain columns.
type grouper struct {
	groupEvals []compiledExpr
	specs      []aggSpec
	width      int           // frame columns a representative keeps
	keys       [][]val.Value // group-key values per group, first-appearance order
	index      rowIndex
	reps       [][]val.Value
	accs       [][]AggAcc
	scratch    []val.Value
}

func (g *grouper) consume(frame []val.Value) (bool, error) {
	for i, ge := range g.groupEvals {
		v, err := ge(frame)
		if err != nil {
			return false, err
		}
		g.scratch[i] = v
	}
	n, h := g.index.find(g.keys, g.scratch)
	if n < 0 {
		n = len(g.keys)
		g.keys = append(g.keys, slices.Clone(g.scratch))
		g.index.add(h)
		g.reps = append(g.reps, slices.Clone(frame[:g.width]))
		g.accs = append(g.accs, make([]AggAcc, len(g.specs)))
	}
	for i, spec := range g.specs {
		if spec.star {
			g.accs[n][i].AddRow()
			continue
		}
		v, err := spec.arg(frame)
		if err != nil {
			return false, err
		}
		if err := g.accs[n][i].Add(spec.fn, v); err != nil {
			return false, err
		}
	}
	return false, nil
}

// aggregate runs the plan into a grouper (global aggregation is one group)
// and evaluates the select list once per group, in first-appearance order.
func aggregate(s sqlparser.Select, items []sqlparser.SelectItem, p *plan, rec *planRecorder) (*Result, error) {
	g := &grouper{groupEvals: make([]compiledExpr, len(s.GroupBy)), width: len(p.schema), scratch: make([]val.Value, len(s.GroupBy))}
	for i, ge := range s.GroupBy {
		ce, err := compileExpr(ge, p.schema)
		if err != nil {
			return nil, err
		}
		g.groupEvals[i] = ce
	}
	ctx := &aggCtx{}
	itemEvals := make([]compiledExpr, len(items))
	out := &Result{Columns: make([]string, len(items))}
	for i, it := range items {
		ce, err := compileWithAggs(it.Expr, p.schema, ctx, &g.specs)
		if err != nil {
			return nil, err
		}
		itemEvals[i], out.Columns[i] = ce, itemName(it)
	}
	if err := p.exec(g.consume, rec); err != nil {
		return nil, err
	}
	// A global aggregate over zero rows still yields one output row; its
	// plain columns read NULL.
	if len(g.groupEvals) == 0 && len(g.reps) == 0 {
		g.reps = append(g.reps, make([]val.Value, g.width))
		g.accs = append(g.accs, make([]AggAcc, len(g.specs)))
	}
	rows := slab{w: len(items)}
	var seen *rowIndex
	if s.Distinct {
		seen = &rowIndex{}
	}
	for n, rep := range g.reps {
		ctx.vals = make([]val.Value, len(g.specs))
		for i, spec := range g.specs {
			ctx.vals[i] = g.accs[n][i].Result(spec.fn)
		}
		o := rows.row()
		for i, ce := range itemEvals {
			v, err := ce(rep)
			if err != nil {
				return nil, err
			}
			o[i] = v
		}
		if seen != nil {
			i, h := seen.find(out.Rows, o)
			if i >= 0 {
				continue
			}
			seen.add(h)
		}
		out.Rows = append(out.Rows, o)
	}
	if len(s.OrderBy) > 0 {
		keys := make([]orderKey, len(s.OrderBy))
		for i, ob := range s.OrderBy {
			ce, err := outputKey(ob.Expr, items, out.Columns)
			if err != nil {
				return nil, err
			}
			keys[i] = orderKey{e: ce, desc: ob.Desc}
		}
		if err := sortByKeys(out.Rows, nil, keys); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AggAcc accumulates one aggregate (COUNT, SUM, AVG, MIN or MAX) over one
// group. The executor's GROUP BY feeds it input values with Add/AddRow; the
// router's scatter-gather feeds it other accumulators' results with Merge.
// Both read Result, so NULL skipping, int→float promotion of SUM and
// AVG-as-SUM/COUNT are defined here and nowhere else. The zero value is an
// empty group; one AggAcc serves one aggregate function throughout.
type AggAcc struct {
	count   int64 // non-NULL inputs, or rows for COUNT(*)
	sumI    int64
	sumF    float64
	isFloat bool
	minV    val.Value
	maxV    val.Value
	seen    bool
}

// AddRow counts one row for COUNT(*).
func (a *AggAcc) AddRow() { a.count++ }

// Add accumulates one input value of aggregate fn; NULLs are ignored.
func (a *AggAcc) Add(fn string, v val.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch fn {
	case "COUNT":
		return nil
	case "SUM", "AVG":
		return a.addSum(fn, v)
	case "MIN", "MAX":
		if !a.seen {
			a.minV, a.maxV, a.seen = v, v, true
			return nil
		}
		if cmp, ok := val.Compare(v, a.minV); ok && cmp < 0 {
			a.minV = v
		}
		if cmp, ok := val.Compare(v, a.maxV); ok && cmp > 0 {
			a.maxV = v
		}
		return nil
	}
	return fmt.Errorf("query: unknown aggregate %s", fn)
}

func (a *AggAcc) addSum(fn string, v val.Value) error {
	switch v.Kind() {
	case val.KindInt:
		a.sumI += v.AsInt()
		a.sumF += float64(v.AsInt())
	case val.KindFloat:
		a.isFloat = true
		a.sumF += v.AsFloat()
	default:
		return fmt.Errorf("query: %s over %s", fn, v.Kind())
	}
	return nil
}

// Merge folds in the Result of an accumulator of the same fn over a
// disjoint part of the group: part[0] is that result, except for AVG, whose
// partial is the pair part[0] = SUM, part[1] = COUNT. Merged results equal
// the single accumulator's exactly for COUNT, MIN, MAX and integral SUM; a
// float SUM or AVG is equal up to the order of the additions.
func (a *AggAcc) Merge(fn string, part []val.Value) error {
	switch fn {
	case "COUNT":
		return a.mergeCount(part[0])
	case "AVG":
		if !part[0].IsNull() { // NULL: no non-NULL input in that part
			if err := a.addSum(fn, part[0]); err != nil {
				return err
			}
		}
		return a.mergeCount(part[1])
	}
	// A partial SUM, MIN or MAX is one more input; a part without non-NULL
	// inputs reports NULL and is skipped like any NULL.
	return a.Add(fn, part[0])
}

func (a *AggAcc) mergeCount(v val.Value) error {
	if v.Kind() != val.KindInt {
		return fmt.Errorf("query: COUNT partial of kind %s", v.Kind())
	}
	a.count += v.AsInt()
	return nil
}

// Result is the aggregate's value: NULL for SUM, AVG, MIN and MAX over no
// non-NULL input, 0 for COUNT.
func (a *AggAcc) Result(fn string) val.Value {
	switch fn {
	case "COUNT":
		return val.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return val.Null()
		}
		if a.isFloat {
			return val.Float(a.sumF)
		}
		return val.Int(a.sumI)
	case "AVG":
		if a.count == 0 {
			return val.Null()
		}
		return val.Float(a.sumF / float64(a.count))
	case "MIN":
		if !a.seen {
			return val.Null()
		}
		return a.minV
	case "MAX":
		if !a.seen {
			return val.Null()
		}
		return a.maxV
	}
	return val.Null()
}
