package router

import (
	"context"
	"fmt"
	"strings"

	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// This file merges scattered aggregate queries. The original query cannot
// simply run on every shard — COUNT of a group split across shards must
// add the per-shard counts, AVG must recombine sums and counts — so the
// router rewrites it into a partial-aggregate query (group expressions
// aliased __g<i>, aggregate calls decomposed into combinable partials
// aliased __a<j>), folds the per-shard partials by group key, and then
// re-evaluates the original select items over the folded values.
//
// The fold runs through the executor's own accumulator (query.AggAcc:
// Merge a shard's partial, read Result), so NULL skipping, SUM staying
// integral until a float joins, MIN/MAX by val.Compare and AVG as
// recombined sum over recombined non-NULL count are the engine's by
// construction. A merged result equals a single node's exactly for COUNT,
// MIN, MAX and integral SUM; a float SUM or AVG is equal only up to
// summation order, because per-shard partial sums change the order of the
// additions (0.1+0.2+0.3).

// aggSpec is one distinct aggregate call of the original query and where
// its partials land in the scatter query's output row.
type aggSpec struct {
	fn   string             // COUNT, SUM, MIN, MAX, AVG (upper-cased)
	call sqlparser.FuncCall // the original call
	pos  int                // first partial column (AVG occupies pos and pos+1)
}

// aggPlan is a scattered aggregate query: the rewritten per-shard text and
// everything needed to fold and recompose its results.
type aggPlan struct {
	sel         bsql.Select
	scatterText string
	groupW      int       // leading group-key columns per scatter row
	scatterW    int       // total scatter row width
	specs       []aggSpec // in first-appearance order
	rewritten   []sqlparser.Expr
	outCols     []string
}

// planAggregate rewrites an aggregated SELECT for scatter-gather.
//
// The router is stricter than a single node in one corner: a select item
// referencing a column that is neither grouped nor aggregated (which a
// single node answers from an arbitrary representative row) is refused,
// because after the merge no source row exists to represent a group.
func planAggregate(sel bsql.Select) (*aggPlan, error) {
	p := &aggPlan{sel: sel, groupW: len(sel.GroupBy)}
	groupStr := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupStr[i] = g.String()
	}
	p.rewritten = make([]sqlparser.Expr, len(sel.Items))
	p.outCols = make([]string, len(sel.Items))
	for i, it := range sel.Items {
		if it.Star || it.TableStar != "" {
			return nil, fmt.Errorf("router: * select items are not supported in scattered aggregate queries; name the grouped columns")
		}
		re, err := p.rewrite(it.Expr, groupStr)
		if err != nil {
			return nil, err
		}
		p.rewritten[i] = re
		p.outCols[i] = query.ItemName(it)
	}

	// Scatter select list: the group expressions, then one partial (or an
	// AVG's sum/count pair) per distinct aggregate call.
	items := make([]sqlparser.SelectItem, 0, p.groupW+len(p.specs)+1)
	for i, g := range sel.GroupBy {
		items = append(items, sqlparser.SelectItem{Expr: g, Alias: fmt.Sprintf("__g%d", i)})
	}
	pos := p.groupW
	for j := range p.specs {
		sp := &p.specs[j]
		sp.pos = pos
		switch sp.fn {
		case "AVG":
			items = append(items,
				sqlparser.SelectItem{Expr: sqlparser.FuncCall{Name: "SUM", Args: sp.call.Args}, Alias: fmt.Sprintf("__a%ds", j)},
				sqlparser.SelectItem{Expr: sqlparser.FuncCall{Name: "COUNT", Args: sp.call.Args}, Alias: fmt.Sprintf("__a%dc", j)})
			pos += 2
		default:
			items = append(items, sqlparser.SelectItem{Expr: sp.call, Alias: fmt.Sprintf("__a%d", j)})
			pos++
		}
	}
	p.scatterW = pos
	p.scatterText = bsql.RenderSelect(bsql.Select{
		Items:   items,
		From:    sel.From,
		Where:   sel.Where,
		GroupBy: sel.GroupBy,
		Limit:   -1,
	})
	return p, nil
}

// rewrite maps an original select-item expression onto the merged partial
// row: aggregate calls become references to their folded __a<j> column,
// subtrees textually equal to a GROUP BY expression become __g<i>, and
// everything around them is preserved for re-evaluation at merge time.
func (p *aggPlan) rewrite(e sqlparser.Expr, groupStr []string) (sqlparser.Expr, error) {
	if s := e.String(); !bsql.IsAggCall(e) {
		for i, g := range groupStr {
			if s == g {
				return sqlparser.ColumnRef{Column: fmt.Sprintf("__g%d", i)}, nil
			}
		}
	}
	switch ex := e.(type) {
	case sqlparser.FuncCall:
		if bsql.IsAggCall(e) {
			j, err := p.register(ex)
			if err != nil {
				return nil, err
			}
			return sqlparser.ColumnRef{Column: fmt.Sprintf("__a%d", j)}, nil
		}
		args := make([]sqlparser.Expr, len(ex.Args))
		for i, a := range ex.Args {
			ra, err := p.rewrite(a, groupStr)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return sqlparser.FuncCall{Name: ex.Name, Star: ex.Star, Args: args}, nil
	case sqlparser.BinaryExpr:
		l, err := p.rewrite(ex.L, groupStr)
		if err != nil {
			return nil, err
		}
		rr, err := p.rewrite(ex.R, groupStr)
		if err != nil {
			return nil, err
		}
		return sqlparser.BinaryExpr{Op: ex.Op, L: l, R: rr}, nil
	case sqlparser.UnaryExpr:
		x, err := p.rewrite(ex.X, groupStr)
		if err != nil {
			return nil, err
		}
		return sqlparser.UnaryExpr{Op: ex.Op, X: x}, nil
	case sqlparser.IsNull:
		x, err := p.rewrite(ex.X, groupStr)
		if err != nil {
			return nil, err
		}
		return sqlparser.IsNull{X: x, Negate: ex.Negate}, nil
	case sqlparser.Literal:
		return ex, nil
	case sqlparser.ColumnRef:
		return nil, fmt.Errorf("router: select item references %s, which is neither grouped nor aggregated; a scattered aggregate cannot pick a representative row", ex.String())
	default:
		return nil, fmt.Errorf("router: unsupported expression %s in a scattered aggregate", e.String())
	}
}

// register records one distinct aggregate call, deduplicating textually so
// COUNT(*) appearing twice folds once.
func (p *aggPlan) register(fc sqlparser.FuncCall) (int, error) {
	fn := strings.ToUpper(fc.Name)
	if fn == "AVG" && fc.Star {
		return 0, fmt.Errorf("router: AVG(*) is not a valid aggregate")
	}
	if !fc.Star && len(fc.Args) != 1 {
		return 0, fmt.Errorf("router: %s takes one argument", fn)
	}
	key := fc.String()
	for j, sp := range p.specs {
		if sp.call.String() == key {
			return j, nil
		}
	}
	p.specs = append(p.specs, aggSpec{fn: fn, call: fc})
	return len(p.specs) - 1, nil
}

// runAggregate scatters an aggregated query as partial aggregates and
// merges: fold partials by group key, finalize, re-evaluate the original
// select items over the folded values, then ORDER BY and LIMIT.
func (r *Router) runAggregate(ctx context.Context, sel bsql.Select) (*client.Result, error) {
	p, err := planAggregate(sel)
	if err != nil {
		return nil, err
	}
	results, err := r.queryAll(ctx, p.scatterText)
	if err != nil {
		return nil, err
	}
	return p.merge(results)
}

func (p *aggPlan) merge(results []*client.Result) (*client.Result, error) {
	type group struct {
		key  []val.Value
		accs []query.AggAcc
	}
	newGroup := func(key []val.Value) *group {
		return &group{key: key, accs: make([]query.AggAcc, len(p.specs))}
	}
	// Groups hash-bucket by composite key hash with real-equality
	// verification, like the engine's aggregate operator; output order is
	// first appearance across the shard results in shard order.
	buckets := make(map[uint64][]*group)
	var ordered []*group
	for _, res := range results {
		for _, row := range res.Rows {
			if len(row) != p.scatterW {
				return nil, fmt.Errorf("router: scatter row has %d columns, expected %d", len(row), p.scatterW)
			}
			key := row[:p.groupW]
			h := val.HashSeed()
			for _, v := range key {
				h = val.Hash64(h, v)
			}
			var g *group
			for _, cand := range buckets[h] {
				if val.RowsEqual(cand.key, key) {
					g = cand
					break
				}
			}
			if g == nil {
				g = newGroup(append([]val.Value(nil), key...))
				buckets[h] = append(buckets[h], g)
				ordered = append(ordered, g)
			}
			for j, sp := range p.specs {
				if err := g.accs[j].Merge(sp.fn, row[sp.pos:]); err != nil {
					return nil, err
				}
			}
		}
	}
	// A global aggregate still yields one row over an empty cluster (each
	// shard already answers one partial row, so this only guards a cluster
	// of zero responding shards — kept for parity with the engine).
	if p.groupW == 0 && len(ordered) == 0 {
		ordered = append(ordered, newGroup(nil))
	}

	// Re-evaluate the original select items over the folded row
	// [__g0..., __a0...].
	cols := make([]string, 0, p.groupW+len(p.specs))
	for i := 0; i < p.groupW; i++ {
		cols = append(cols, fmt.Sprintf("__g%d", i))
	}
	for j := range p.specs {
		cols = append(cols, fmt.Sprintf("__a%d", j))
	}
	evals := make([]query.OutputExpr, len(p.rewritten))
	for i, re := range p.rewritten {
		ce, err := query.CompileOutput(re, cols)
		if err != nil {
			return nil, err
		}
		evals[i] = ce
	}
	rows := make([][]val.Value, 0, len(ordered))
	for _, g := range ordered {
		folded := make([]val.Value, 0, len(cols))
		folded = append(folded, g.key...)
		for j := range p.specs {
			folded = append(folded, g.accs[j].Result(p.specs[j].fn))
		}
		out := make([]val.Value, len(evals))
		for i, ce := range evals {
			v, err := ce(folded)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rows = append(rows, out)
	}

	if len(p.sel.OrderBy) > 0 {
		if err := query.SortRows(p.sel.OrderBy, p.sel.Items, p.outCols, rows); err != nil {
			return nil, err
		}
	}
	if p.sel.Limit >= 0 && len(rows) > p.sel.Limit {
		rows = rows[:p.sel.Limit]
	}
	return &client.Result{Columns: p.outCols, Rows: rows}, nil
}
