package query

import (
	"fmt"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// planRecorder collects the planner's access-path and join decisions while
// a query executes. EXPLAIN runs the query with a recorder attached and
// returns the recorded steps as rows instead of the query result — the
// replacement for the old BELIEFDB_TRACE_PLAN stderr tracing, visible
// through every front end (plain SQL, BeliefSQL, the wire protocol).
type planRecorder struct {
	steps []planStep
}

// planStep is one recorded decision: which access path or join strategy a
// binding used, and how many rows the step produced.
type planStep struct {
	binding string
	op      string
	detail  string
	rows    int
}

// record appends a step; it is safe on a nil recorder so the execution
// paths stay unconditional.
func (p *planRecorder) record(binding, op, detail string, rows int) {
	if p == nil {
		return
	}
	p.steps = append(p.steps, planStep{binding: binding, op: op, detail: detail, rows: rows})
}

// result renders the recorded steps as a query result.
func (p *planRecorder) result() *Result {
	out := &Result{Columns: []string{"binding", "access_path", "detail", "rows"}}
	for _, s := range p.steps {
		out.Rows = append(out.Rows, []val.Value{
			val.Str(s.binding), val.Str(s.op), val.Str(s.detail), val.Int(int64(s.rows)),
		})
	}
	return out
}

// orderedScan attempts the single-table ORDER BY/LIMIT pushdown: when an
// ordered index's columns — after any const-eq-bound prefix — match the
// ORDER BY columns in order and direction, the index walk itself yields
// rows in result order, so no sort is needed and a LIMIT turns into a
// bounded top-k walk that stops after limit matching rows. Returns
// ok=false when the query shape or the available indexes do not allow it.
func orderedScan(cat *engine.Catalog, b binding, s sqlparser.Select, rec *planRecorder) (*rowSet, bool, error) {
	tc := &tableCtx{b: b, schema: tableSchema(b), rec: rec}
	ctxs := map[string]*tableCtx{b.alias: tc}
	_, residuals, constTrue, err := classifyWhere(cat, s.Where, tc.schema, ctxs)
	if err != nil {
		return nil, false, err
	}
	if len(residuals) > 0 {
		// An EXISTS conjunct must filter before a LIMIT counts rows, which
		// the walk cannot do; leave the query to the general plan.
		return nil, false, nil
	}

	// Every ORDER BY item must be a plain column of this table, all in the
	// same direction (a B-tree walk has one direction for the whole key).
	desc := s.OrderBy[0].Desc
	orderCols := make([]int, 0, len(s.OrderBy))
	for _, ob := range s.OrderBy {
		if ob.Desc != desc {
			return nil, false, nil
		}
		cr, ok := ob.Expr.(sqlparser.ColumnRef)
		if !ok {
			return nil, false, nil
		}
		i, err := tc.schema.find(cr)
		if err != nil {
			return nil, false, nil
		}
		orderCols = append(orderCols, i)
	}

	sch := b.table.Schema()

	// Find an ordered index whose columns, after the const-eq-bound
	// prefix, start with exactly the ORDER BY columns.
	var idx *engine.Index
	var eqPrefix int
	for _, cand := range b.table.Indexes() {
		if !cand.Ordered() {
			continue
		}
		cols := cand.Cols()
		p := tc.eqPrefix(cols)
		if p+len(orderCols) > len(cols) {
			continue
		}
		match := true
		for i, oc := range orderCols {
			if cols[p+i] != oc {
				match = false
				break
			}
		}
		if match {
			idx, eqPrefix = cand, p
			break
		}
	}
	if idx == nil {
		return nil, false, nil
	}

	if !constTrue {
		rec.record("", "empty", "constant-false predicate", 0)
		return &rowSet{schema: tc.schema}, true, nil
	}

	// Composite bounds: the eq prefix plus any interval on the first
	// ordering column.
	prefix := make([]val.Value, eqPrefix)
	for i := 0; i < eqPrefix; i++ {
		prefix[i] = tc.eqOn[idx.Cols()[i]]
	}
	iv := tc.interval(sch.Columns[idx.Cols()[eqPrefix]].Name)
	lo, hi := prefix, prefix
	loIncl, hiIncl := true, true
	if iv.lo != nil {
		lo = append(append([]val.Value(nil), prefix...), *iv.lo)
		loIncl = iv.loIncl
	}
	if iv.hi != nil {
		hi = append(append([]val.Value(nil), prefix...), *iv.hi)
		hiIncl = iv.hiIncl
	}
	if len(lo) == 0 {
		lo, loIncl = nil, true
	}
	if len(hi) == 0 {
		hi, hiIncl = nil, true
	}

	// Without a LIMIT the walk must still win on cost: visiting the whole
	// range in key order can lose to a selective probe on another index
	// followed by a sort. With a LIMIT the walk stops after limit matches,
	// which no probe-then-sort plan can do, so top-k always walks.
	if s.Limit < 0 {
		n := float64(b.table.Len())
		perKey := n
		if k := idx.Len(); k > 0 {
			perKey = n / float64(k)
		}
		walkCost := rangeWalkPenalty * float64(idx.RangeKeys(lo, loIncl, hi, hiIncl)) * perKey
		alt := tc.accessPath()
		if walkCost > alt.cost+alt.est {
			return nil, false, nil
		}
	}

	var preds []compiledExpr
	for _, f := range tc.filters {
		p, err := compileExpr(f, tc.schema)
		if err != nil {
			return nil, false, err
		}
		preds = append(preds, p)
	}
	out := &rowSet{schema: tc.schema}
	limit := s.Limit // -1 = unbounded
	var walkErr error
	visit := func(_ []val.Value, ids []engine.RowID) bool {
		for _, id := range ids {
			row := b.table.Get(id)
			keep := true
			for _, p := range preds {
				ok, err := truthy(p, row)
				if err != nil {
					walkErr = err
					return false
				}
				if !ok {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			out.rows = append(out.rows, row)
			if limit >= 0 && len(out.rows) >= limit {
				return false
			}
		}
		return true
	}
	if desc {
		idx.DescendRange(lo, loIncl, hi, hiIncl, visit)
	} else {
		idx.AscendRange(lo, loIncl, hi, hiIncl, visit)
	}
	if walkErr != nil {
		return nil, false, walkErr
	}
	detail := fmt.Sprintf("index=%s order-satisfying", idx.Name())
	if desc {
		detail += " desc"
	}
	if limit >= 0 {
		detail += fmt.Sprintf(" limit=%d", limit)
	}
	rec.record(b.alias, "ordered walk", detail, len(out.rows))
	return out, true, nil
}
