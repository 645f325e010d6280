package query

import (
	"fmt"
	"slices"
	"strings"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// semiJoin is one EXISTS (subquery) conjunct, planned once per statement
// into a chain of probes over the subquery's tables, whose columns take
// their own region of the enclosing query's frame. The columns of the
// enclosing query it mentions are read from that frame in place; per outer
// row the chain runs on the same run loop as the positive join and stops at
// the first match, so no intermediate row set is built. Leading steps that
// read no outer column (a literal-user E-chain, say) are resolved once and
// their matches replayed for every outer row.
type semiJoin struct {
	refs      []bool  // outer bindings the subquery mentions, by FROM position
	steps     []*step // probe order
	end       int     // frame offset past the steps' columns
	prefixLen int     // leading steps that read no outer column
	per       chain   // what runs per outer row (see prepare)
	kept      int     // outer rows with a match, for EXPLAIN
}

// semiStep is a step of the subquery while its probe order is chosen.
type semiStep struct {
	*step
	tbl     int         // position in the subquery's FROM list
	keyConj []*semiConj // the equalities the probe enforces, one per probed column
	corr    bool        // reads an outer column
}

// semiOperand is one side of an equi-conjunct of the subquery: a column of
// one of its tables, an outer column, or a literal.
type semiOperand struct {
	tbl   int // subquery table (FROM position); -1 for an outer column or literal
	col   int // column position in that table, or the outer column's frame slot
	isLit bool
	lit   val.Value
}

// semiConj is one conjunct of the subquery's WHERE clause.
type semiConj struct {
	expr  sqlparser.Expr
	tbls  []bool // subquery tables it mentions
	outer bool   // mentions the enclosing query
	// eq marks column = column/literal conjuncts, which can key a probe.
	// Like the planner's join edges they match by val.Equal; a literal
	// equality also stays a filter, as pushed-down constants do.
	eq   bool
	l, r semiOperand // l is a subquery column, r lives elsewhere
	done bool
}

// semiScope resolves the subquery's column references: its own tables
// first, the enclosing query second. Once the probe order has fixed tblOff
// it is the colResolver of the subquery's expressions.
type semiScope struct {
	sj       *semiJoin
	inner    relSchema // subquery tables in FROM order
	innerCol []int     // position of each inner column within its table
	aliases  map[string]bool
	outer    relSchema
	tblOff   []int // frame offset of each subquery table
}

func (sc *semiScope) resolve(ref sqlparser.ColumnRef) (semiOperand, error) {
	mine := sc.aliases[ref.Table]
	if ref.Table == "" {
		for _, c := range sc.inner {
			mine = mine || c.name == ref.Column
		}
	}
	if mine {
		i, err := sc.inner.find(ref)
		if err != nil {
			return semiOperand{}, err
		}
		return semiOperand{tbl: sc.inner[i].bind, col: sc.innerCol[i]}, nil
	}
	o, err := sc.outer.find(ref)
	if err != nil {
		return semiOperand{}, err
	}
	sc.sj.refs[sc.outer[o].bind] = true
	return semiOperand{tbl: -1, col: o}, nil
}

// slot is the frame position of a column or outer-column operand.
func (sc *semiScope) slot(o semiOperand) int {
	if o.tbl < 0 {
		return o.col
	}
	return sc.tblOff[o.tbl] + o.col
}

func (sc *semiScope) find(ref sqlparser.ColumnRef) (int, error) {
	o, err := sc.resolve(ref)
	if err != nil {
		return -1, err
	}
	return sc.slot(o), nil
}

// classify resolves one conjunct's references and recognises the
// equalities a probe can be keyed by.
func (sc *semiScope) classify(e sqlparser.Expr) (*semiConj, error) {
	c := &semiConj{expr: e, tbls: make([]bool, len(sc.tblOff))}
	err := walkColumnRefs(e, func(ref sqlparser.ColumnRef) error {
		o, err := sc.resolve(ref)
		if err != nil {
			return err
		}
		if o.tbl < 0 {
			c.outer = true
		} else {
			c.tbls[o.tbl] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	be, ok := e.(sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return c, nil
	}
	operand := func(x sqlparser.Expr) (semiOperand, bool) {
		switch v := x.(type) {
		case sqlparser.Literal:
			return semiOperand{tbl: -1, isLit: true, lit: v.Val}, true
		case sqlparser.ColumnRef:
			o, err := sc.resolve(v)
			return o, err == nil
		}
		return semiOperand{}, false
	}
	l, lok := operand(be.L)
	r, rok := operand(be.R)
	if l.tbl < 0 {
		l, r = r, l
	}
	if lok && rok && l.tbl >= 0 && l.tbl != r.tbl {
		c.eq, c.l, c.r = true, l, r
	}
	return c, nil
}

// planSemiJoin plans the subquery of an EXISTS conjunct against the
// enclosing query's frame schema of nOuter bindings, its tables' columns
// from frame offset base on.
func planSemiJoin(cat *engine.Catalog, ex sqlparser.Exists, outer relSchema, nOuter, base int) (*semiJoin, error) {
	q := ex.Query
	if q.Distinct || len(q.GroupBy) > 0 || len(q.OrderBy) > 0 || q.Limit >= 0 {
		return nil, fmt.Errorf("query: an EXISTS subquery supports only SELECT ... FROM ... [WHERE ...]")
	}
	for _, it := range q.Items {
		if it.Expr != nil && ContainsAggregate(it.Expr) {
			return nil, fmt.Errorf("query: aggregate in the select list of an EXISTS subquery")
		}
	}
	sj := &semiJoin{refs: make([]bool, nOuter), end: base}
	sc := &semiScope{sj: sj, aliases: make(map[string]bool), outer: outer, tblOff: make([]int, len(q.From))}
	tables := make([]binding, len(q.From))
	for i, ref := range q.From {
		t := cat.Table(ref.Table)
		if t == nil {
			return nil, fmt.Errorf("query: no table %q", ref.Table)
		}
		if sc.aliases[ref.Name()] {
			return nil, fmt.Errorf("query: duplicate table binding %q", ref.Name())
		}
		sc.aliases[ref.Name()] = true
		tables[i] = binding{alias: ref.Name(), table: t}
		for c := range t.Schema().Columns {
			sc.innerCol = append(sc.innerCol, c)
		}
		sc.inner = appendSchema(sc.inner, tables[i], i)
	}
	var conjs []*semiConj
	if q.Where != nil {
		for _, e := range splitAnd(q.Where, nil) {
			c, err := sc.classify(e)
			if err != nil {
				return nil, err
			}
			conjs = append(conjs, c)
		}
	}

	// Greedy probe order: the table cheapest to reach from what is already
	// in place (literals, outer columns, earlier steps); on a tie
	// uncorrelated before correlated, so the once-resolved prefix grows.
	placed := make([]bool, len(tables))
	steps := make([]*semiStep, 0, len(tables))
	for range tables {
		var best *semiStep
		var bestCost float64
		for i, b := range tables {
			if placed[i] {
				continue
			}
			st, cost := planSemiStep(i, b, conjs, placed)
			if best == nil || cost < bestCost || (cost == bestCost && best.corr && !st.corr) {
				best, bestCost = st, cost
			}
		}
		best.off = sj.end
		sc.tblOff[best.tbl] = sj.end
		sj.end += best.table.Schema().Arity()
		placed[best.tbl] = true
		steps = append(steps, best)
		sj.steps = append(sj.steps, best.step)
	}

	// Attach every conjunct to the first step at which it is decidable: as
	// the probe key where planSemiStep chose it, else as an equality check,
	// else as a compiled filter.
	clear(placed)
	for n, st := range steps {
		placed[st.tbl] = true
		st.keySlot = make([]int, len(st.keyConj))
		for k, c := range st.keyConj {
			if src := c.other(st.tbl); src.isLit {
				st.key[k], st.keySlot[k] = src.lit, -1
			} else {
				st.keySlot[k] = sc.slot(src)
			}
		}
	conjuncts:
		for _, c := range conjs {
			if c.done {
				continue
			}
			for t, used := range c.tbls {
				if used && !placed[t] {
					continue conjuncts
				}
			}
			c.done = true
			st.corr = st.corr || c.outer
			if c.eq && !c.r.isLit {
				if !slices.Contains(st.keyConj, c) {
					st.checks = append(st.checks, [2]int{sc.slot(c.l), sc.slot(c.r)})
				}
				continue
			}
			f, err := compileExpr(c.expr, sc)
			if err != nil {
				return nil, err
			}
			st.filters = append(st.filters, f)
		}
		if !st.corr && sj.prefixLen == n {
			sj.prefixLen = n + 1
		}
	}
	return sj, nil
}

// other returns the side of an equi-conjunct that is not a column of tbl.
func (c *semiConj) other(tbl int) semiOperand {
	if c.l.tbl == tbl {
		return c.r
	}
	return c.l
}

// planSemiStep chooses how to reach table i of the subquery given the
// tables already placed, and estimates the rows one probe fetches.
func planSemiStep(i int, b binding, conjs []*semiConj, placed []bool) (*semiStep, float64) {
	t := b.table
	st := &semiStep{step: &step{alias: b.alias, table: t}, tbl: i}
	// bound maps a column of this table to the first equality fixing its
	// value from what is in place; later ones on the same column check.
	bound := make(map[int]*semiConj)
	for _, c := range conjs {
		if !c.eq {
			continue
		}
		for _, side := range [2][2]semiOperand{{c.l, c.r}, {c.r, c.l}} {
			mine, other := side[0], side[1]
			if mine.tbl != i || (other.tbl >= 0 && !placed[other.tbl]) {
				continue
			}
			if _, dup := bound[mine.col]; !dup {
				bound[mine.col] = c
			}
		}
	}
	cols, idx, cost := bestProbe(t, func(c int) bool { return bound[c] != nil })
	if st.idx = idx; cols != nil {
		st.fetch = fetchProbe
	}
	for _, c := range cols {
		st.keyConj = append(st.keyConj, bound[c])
		st.corr = st.corr || bound[c].outer
	}
	st.key = make([]val.Value, len(st.keyConj))
	return st, cost
}

// prepare readies the per-row chain before the outer chain runs. With
// nothing correlated one evaluation decides every row; otherwise the
// uncorrelated prefix's matches are collected once, as copies of its frame
// region, and replayed ahead of the correlated steps.
func (sj *semiJoin) prepare(frame []val.Value) error {
	found := func([]val.Value) (bool, error) { return true, nil }
	once := chain{steps: sj.steps[:sj.prefixLen], frame: frame, term: found}
	switch {
	case sj.prefixLen == len(sj.steps):
		ok, err := once.run(0)
		if err != nil {
			return err
		}
		sj.per = chain{term: func([]val.Value) (bool, error) { return ok, nil }}
	case sj.prefixLen > 0:
		replay := &step{fetch: fetchRows, off: sj.steps[0].off}
		end := sj.steps[sj.prefixLen].off
		once.term = func([]val.Value) (bool, error) {
			replay.rows = append(replay.rows, slices.Clone(frame[replay.off:end]))
			return false, nil
		}
		if _, err := once.run(0); err != nil {
			return err
		}
		sj.per = chain{steps: append([]*step{replay}, sj.steps[sj.prefixLen:]...), frame: frame, term: found}
	default:
		sj.per = chain{steps: sj.steps, frame: frame, term: found}
	}
	return nil
}

// holds decides the subquery for the outer row in the frame.
func (sj *semiJoin) holds() (bool, error) {
	ok, err := sj.per.run(0)
	if ok && err == nil {
		sj.kept++
	}
	return ok, err
}

// explain records the semi-join as one step: its probes in order, the
// uncorrelated prefix marked, the rows its tables fetched, the outer rows
// kept.
func (sj *semiJoin) explain(rec *planRecorder) {
	aliases := make([]string, len(sj.steps))
	parts := make([]string, len(sj.steps))
	fetched := 0
	for i, st := range sj.steps {
		aliases[i] = st.alias
		switch {
		case st.fetch == fetchScan:
			parts[i] = st.alias + " scan"
		case st.idx != nil:
			parts[i] = st.alias + " index=" + st.idx.Name()
		default:
			parts[i] = st.alias + " pk"
		}
		if i < sj.prefixLen {
			parts[i] += " once"
		}
		fetched += st.fetched
	}
	rec.record(strings.Join(aliases, ","), "semi join",
		fmt.Sprintf("%s fetched=%d", strings.Join(parts, " -> "), fetched), sj.kept)
}
