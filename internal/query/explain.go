package query

import (
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

// orderedPath is the single-table ORDER BY/LIMIT pushdown: when an
// ordered index's columns — after any const-eq-bound prefix — match the
// ORDER BY columns in order and direction, the index walk itself yields
// rows in result order, so no sort is needed and a LIMIT stops the chain
// after limit matching rows (a bounded top-k walk). It returns nil when the
// ORDER BY or the available indexes do not allow it. schema is tc's alone.
func orderedPath(tc *tableCtx, s sqlparser.Select, schema relSchema) *accessPath {
	// Every ORDER BY item must be a plain column of this table, all in the
	// same direction (a B-tree walk has one direction for the whole key).
	desc := s.OrderBy[0].Desc
	orderCols := make([]int, 0, len(s.OrderBy))
	for _, ob := range s.OrderBy {
		if ob.Desc != desc {
			return nil
		}
		cr, ok := ob.Expr.(sqlparser.ColumnRef)
		if !ok {
			return nil
		}
		i, err := schema.find(cr)
		if err != nil {
			return nil
		}
		orderCols = append(orderCols, i)
	}

	t := tc.b.table

	// Find an ordered index whose columns, after the const-eq-bound
	// prefix, start with exactly the ORDER BY columns.
	var idx *engine.Index
	var eqPrefix int
	for _, cand := range t.Indexes() {
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
		return nil
	}

	// Composite bounds: the eq prefix plus any interval on the first
	// ordering column.
	prefix := make([]val.Value, eqPrefix)
	for i := 0; i < eqPrefix; i++ {
		prefix[i], _ = tc.eq(idx.Cols()[i])
	}
	iv := tc.interval(idx.Cols()[eqPrefix])
	ap := &accessPath{kind: pathOrdered, idx: idx, lo: prefix, hi: prefix, loIncl: true, hiIncl: true, desc: desc, limit: s.Limit}
	if iv.lo != nil {
		ap.lo = append(append([]val.Value(nil), prefix...), *iv.lo)
		ap.loIncl = iv.loIncl
	}
	if iv.hi != nil {
		ap.hi = append(append([]val.Value(nil), prefix...), *iv.hi)
		ap.hiIncl = iv.hiIncl
	}
	if len(ap.lo) == 0 {
		ap.lo, ap.loIncl = nil, true
	}
	if len(ap.hi) == 0 {
		ap.hi, ap.hiIncl = nil, true
	}

	// Without a LIMIT the walk must still win on cost: visiting the whole
	// range in key order can lose to a selective probe on another index
	// followed by a sort. With a LIMIT the walk stops after limit matches,
	// which no probe-then-sort plan can do, so top-k always walks.
	if s.Limit < 0 {
		n := float64(t.Len())
		perKey := n
		if k := idx.Len(); k > 0 {
			perKey = n / float64(k)
		}
		walkCost := rangeWalkPenalty * float64(idx.RangeKeys(ap.lo, ap.loIncl, ap.hi, ap.hiIncl)) * perKey
		alt := tc.accessPath()
		if walkCost > alt.cost+alt.est {
			return nil
		}
	}
	return ap
}
