package query

import (
	"fmt"
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

// Run plans and executes one parsed statement against the catalog. The
// caller is responsible for serializing access (see internal/sqldb).
func Run(cat *engine.Catalog, stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case sqlparser.CreateTable:
		return runCreateTable(cat, s)
	case sqlparser.CreateIndex:
		return runCreateIndex(cat, s)
	case sqlparser.DropTable:
		if err := cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case sqlparser.Insert:
		return runInsert(cat, s)
	case sqlparser.Select:
		return runSelect(cat, s)
	case sqlparser.Explain:
		return runExplain(cat, s)
	case sqlparser.Delete:
		return runDelete(cat, s)
	case sqlparser.Update:
		return runUpdate(cat, s)
	case sqlparser.Begin:
		if _, err := cat.Begin(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case sqlparser.Commit:
		txn := cat.ActiveTxn()
		if txn == nil {
			return nil, fmt.Errorf("query: COMMIT outside a transaction")
		}
		return &Result{}, txn.Commit()
	case sqlparser.Rollback:
		txn := cat.ActiveTxn()
		if txn == nil {
			return nil, fmt.Errorf("query: ROLLBACK outside a transaction")
		}
		return &Result{}, txn.Rollback()
	default:
		return nil, fmt.Errorf("query: unsupported statement %T", stmt)
	}
}

func runCreateTable(cat *engine.Catalog, s sqlparser.CreateTable) (*Result, error) {
	cols := make([]engine.Column, len(s.Cols))
	pk := -1
	for i, c := range s.Cols {
		cols[i] = engine.Column{Name: c.Name, Type: c.Type}
		if c.PrimaryKey {
			if pk >= 0 {
				return nil, fmt.Errorf("query: multiple primary keys on %s", s.Name)
			}
			pk = i
		}
	}
	schema, err := engine.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	if _, err := cat.CreateTable(s.Name, schema, pk); err != nil {
		return nil, err
	}
	return &Result{}, nil
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

func runInsert(cat *engine.Catalog, s sqlparser.Insert) (*Result, error) {
	t := cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	sch := t.Schema()
	colPos := make([]int, 0, len(s.Cols))
	for _, c := range s.Cols {
		p := sch.ColumnIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("query: no column %q in %s", c, s.Table)
		}
		colPos = append(colPos, p)
	}
	// All-or-nothing: open an implicit transaction unless one is active.
	implicit := !cat.InTxn()
	var txn *engine.Txn
	if implicit {
		var err error
		txn, err = cat.Begin()
		if err != nil {
			return nil, err
		}
	}
	n := 0
	for _, exprRow := range s.Rows {
		vals := make([]val.Value, len(exprRow))
		for i, e := range exprRow {
			ce, err := compileExpr(e, relSchema{})
			if err != nil {
				return nil, rollbackOnErr(txn, err)
			}
			v, err := ce(nil)
			if err != nil {
				return nil, rollbackOnErr(txn, err)
			}
			vals[i] = v
		}
		row := vals
		if len(colPos) > 0 {
			if len(vals) != len(colPos) {
				return nil, rollbackOnErr(txn, fmt.Errorf("query: %d values for %d columns", len(vals), len(colPos)))
			}
			row = make([]val.Value, sch.Arity())
			for i, p := range colPos {
				row[p] = vals[i]
			}
		}
		if _, err := t.Insert(row); err != nil {
			return nil, rollbackOnErr(txn, err)
		}
		n++
	}
	if implicit {
		if err := txn.Commit(); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: n}, nil
}

func rollbackOnErr(txn *engine.Txn, err error) error {
	if txn != nil {
		txn.Rollback()
	}
	return err
}

func runDelete(cat *engine.Catalog, s sqlparser.Delete) (*Result, error) {
	t := cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	ids, _, err := matchRows(t, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := t.Delete(id); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func runUpdate(cat *engine.Catalog, s sqlparser.Update) (*Result, error) {
	t := cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("query: no table %q", s.Table)
	}
	sch := t.Schema()
	schema := tableSchema(binding{alias: s.Table, table: t})
	type setOp struct {
		pos int
		e   compiledExpr
	}
	sets := make([]setOp, 0, len(s.Set))
	for _, a := range s.Set {
		p := sch.ColumnIndex(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("query: no column %q in %s", a.Column, s.Table)
		}
		ce, err := compileExpr(a.Value, schema)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{pos: p, e: ce})
	}
	ids, rows, err := matchRows(t, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		newRow := append([]val.Value(nil), rows[i]...)
		for _, op := range sets {
			v, err := op.e(rows[i])
			if err != nil {
				return nil, err
			}
			newRow[op.pos] = v
		}
		if err := t.Update(id, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}

// matchRows returns the ids and row images of rows satisfying where.
func matchRows(t *engine.Table, alias string, where sqlparser.Expr) ([]engine.RowID, [][]val.Value, error) {
	schema := tableSchema(binding{alias: alias, table: t})
	var pred compiledExpr
	if where != nil {
		var err error
		pred, err = compileExpr(where, schema)
		if err != nil {
			return nil, nil, err
		}
	}
	var ids []engine.RowID
	var rows [][]val.Value
	var scanErr error
	t.Scan(func(id engine.RowID, row []val.Value) bool {
		if pred != nil {
			ok, err := truthy(pred, row)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		ids = append(ids, id)
		rows = append(rows, row)
		return true
	})
	if scanErr != nil {
		return nil, nil, scanErr
	}
	return ids, rows, nil
}

func runSelect(cat *engine.Catalog, s sqlparser.Select) (*Result, error) {
	return runSelectPlan(cat, s, nil)
}

// runExplain executes the query with a plan recorder attached and returns
// the recorded access-path decisions instead of the query result. Running
// for real (rather than dry-planning) keeps the output honest: the greedy
// join order depends on actual materialized sizes.
func runExplain(cat *engine.Catalog, s sqlparser.Explain) (*Result, error) {
	rec := &planRecorder{}
	if _, err := runSelectPlan(cat, s.Query, rec); err != nil {
		return nil, err
	}
	return rec.result(), nil
}

func runSelectPlan(cat *engine.Catalog, s sqlparser.Select, rec *planRecorder) (*Result, error) {
	bindings := make([]binding, 0, len(s.From))
	for _, ref := range s.From {
		t := cat.Table(ref.Table)
		if t == nil {
			return nil, fmt.Errorf("query: no table %q", ref.Table)
		}
		bindings = append(bindings, binding{alias: ref.Name(), table: t})
	}

	items, err := expandStars(s.Items, bindings)
	if err != nil {
		return nil, err
	}

	hasAgg := len(s.GroupBy) > 0
	for _, it := range items {
		if containsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	// Single-table ORDER BY can come straight off an ordered index, making
	// the sort free and a LIMIT an early-stopping top-k walk.
	var src *rowSet
	preOrdered := false
	if len(bindings) == 1 && !hasAgg && !s.Distinct && len(s.OrderBy) > 0 {
		os, ok, err := orderedScan(cat, bindings[0], s, rec)
		if err != nil {
			return nil, err
		}
		if ok {
			src, preOrdered = os, true
		}
	}
	if src == nil {
		src, err = planJoins(cat, bindings, s.Where, rec)
		if err != nil {
			return nil, err
		}
	}

	var out *Result
	if hasAgg {
		out, err = aggregate(s, items, src)
	} else {
		out, err = project(items, src)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		out.Rows = dedupeRows(out.Rows)
	}

	if len(s.OrderBy) > 0 && !preOrdered {
		if err := orderRows(s, items, src, out, hasAgg); err != nil {
			return nil, err
		}
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

func project(items []sqlparser.SelectItem, src *rowSet) (*Result, error) {
	evals := make([]compiledExpr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		ce, err := compileExpr(it.Expr, src.schema)
		if err != nil {
			return nil, err
		}
		evals[i] = ce
		names[i] = itemName(it)
	}
	out := &Result{Columns: names, Rows: make([][]val.Value, 0, len(src.rows))}
	for _, row := range src.rows {
		o := make([]val.Value, len(evals))
		for i, ce := range evals {
			v, err := ce(row)
			if err != nil {
				return nil, err
			}
			o[i] = v
		}
		out.Rows = append(out.Rows, o)
	}
	return out, nil
}

func dedupeRows(rows [][]val.Value) [][]val.Value {
	// Hash-bucketed dedup: rows that hash together are compared for real
	// equality, so colliding distinct rows are both kept.
	seen := make(map[uint64][][]val.Value, len(rows))
	out := rows[:0:0]
nextRow:
	for _, r := range rows {
		h := val.HashRow(val.HashSeed(), r)
		for _, prev := range seen[h] {
			if val.RowsEqual(prev, r) {
				continue nextRow
			}
		}
		seen[h] = append(seen[h], r)
		out = append(out, r)
	}
	return out
}

// orderRows sorts out.Rows in place according to ORDER BY. Order
// expressions are resolved against the source schema when possible (so that
// non-projected columns can be sorted on); otherwise against the output
// columns (aliases). With DISTINCT or aggregation only output resolution is
// available.
func orderRows(s sqlparser.Select, items []sqlparser.SelectItem, src *rowSet, out *Result, aggregated bool) error {
	outSchema := make(relSchema, len(out.Columns))
	for i, n := range out.Columns {
		outSchema[i] = colID{name: n}
	}
	srcAllowed := !s.Distinct && !aggregated && len(out.Rows) == len(src.rows)

	type keyFn struct {
		onSrc bool
		e     compiledExpr
		desc  bool
	}
	fns := make([]keyFn, 0, len(s.OrderBy))
	for _, ob := range s.OrderBy {
		if srcAllowed {
			if ce, err := compileExpr(ob.Expr, src.schema); err == nil {
				fns = append(fns, keyFn{onSrc: true, e: ce, desc: ob.Desc})
				continue
			}
		}
		ce, err := compileExpr(ob.Expr, outSchema)
		if err != nil {
			// Fall back to matching the ORDER BY expression against a select
			// item textually (covers ORDER BY u.name over aggregated output).
			want := ob.Expr.String()
			found := -1
			for i, it := range items {
				if it.Expr.String() == want {
					found = i
					break
				}
			}
			if found < 0 {
				return err
			}
			pos := found
			ce = func(row []val.Value) (val.Value, error) { return row[pos], nil }
		}
		fns = append(fns, keyFn{e: ce, desc: ob.Desc})
	}

	idx := make([]int, len(out.Rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for _, f := range fns {
			var ra, rb []val.Value
			if f.onSrc {
				ra, rb = src.rows[idx[a]], src.rows[idx[b]]
			} else {
				ra, rb = out.Rows[idx[a]], out.Rows[idx[b]]
			}
			va, err := f.e(ra)
			if err != nil {
				sortErr = err
				return false
			}
			vb, err := f.e(rb)
			if err != nil {
				sortErr = err
				return false
			}
			cmp, ok := val.Compare(va, vb)
			if !ok {
				continue
			}
			if cmp == 0 {
				continue
			}
			if f.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := make([][]val.Value, len(out.Rows))
	for i, j := range idx {
		sorted[i] = out.Rows[j]
	}
	out.Rows = sorted
	return nil
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
			if containsAggregate(fc.Args[0]) {
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

// aggregate evaluates grouped (or global) aggregation over src.
func aggregate(s sqlparser.Select, items []sqlparser.SelectItem, src *rowSet) (*Result, error) {
	groupEvals := make([]compiledExpr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		ce, err := compileExpr(g, src.schema)
		if err != nil {
			return nil, err
		}
		groupEvals[i] = ce
	}
	ctx := &aggCtx{}
	var specs []aggSpec
	itemEvals := make([]compiledExpr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		ce, err := compileWithAggs(it.Expr, src.schema, ctx, &specs)
		if err != nil {
			return nil, err
		}
		itemEvals[i] = ce
		names[i] = itemName(it)
	}

	type group struct {
		key  []val.Value // group-key values, for collision verification
		rep  []val.Value // representative source row
		accs []AggAcc
	}
	newGroup := func(key, row []val.Value) *group {
		return &group{key: key, rep: row, accs: make([]AggAcc, len(specs))}
	}
	// Groups are hash-bucketed by the composite hash of the group-key
	// values; rows landing in an occupied bucket verify real key equality,
	// so colliding distinct keys form separate groups. Output order is the
	// first-appearance order of each group, as before.
	groups := make(map[uint64][]*group)
	var ordered []*group
	scratch := make([]val.Value, len(groupEvals))
	for _, row := range src.rows {
		h := val.HashSeed()
		for i, ge := range groupEvals {
			v, err := ge(row)
			if err != nil {
				return nil, err
			}
			scratch[i] = v
			h = val.Hash64(h, v)
		}
		var g *group
		for _, cand := range groups[h] {
			if val.RowsEqual(cand.key, scratch) {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(append([]val.Value(nil), scratch...), row)
			groups[h] = append(groups[h], g)
			ordered = append(ordered, g)
		}
		for i, spec := range specs {
			if spec.star {
				g.accs[i].AddRow()
				continue
			}
			v, err := spec.arg(row)
			if err != nil {
				return nil, err
			}
			if err := g.accs[i].Add(spec.fn, v); err != nil {
				return nil, err
			}
		}
	}
	// A global aggregate over zero rows still yields one output row.
	if len(groupEvals) == 0 && len(ordered) == 0 {
		ordered = append(ordered, newGroup(nil, nil))
	}

	out := &Result{Columns: names}
	for _, g := range ordered {
		ctx.vals = make([]val.Value, len(specs))
		for i, spec := range specs {
			ctx.vals[i] = g.accs[i].Result(spec.fn)
		}
		o := make([]val.Value, len(itemEvals))
		for i, ce := range itemEvals {
			v, err := ce(g.rep)
			if err != nil {
				return nil, err
			}
			o[i] = v
		}
		out.Rows = append(out.Rows, o)
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
