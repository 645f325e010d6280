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
// into a chain of probes over the subquery's tables. The columns of the
// enclosing query it mentions are parameters; per outer row the chain runs
// as nested index probes on one reused frame and stops at the first match,
// so no intermediate row set is built. Leading steps that read no parameter
// (a literal-user E-chain, say) are resolved once and their matches
// replayed for every outer row.
type semiJoin struct {
	refs   map[string]bool // outer bindings the subquery mentions
	steps  []*semiStep     // probe order
	inner  int             // frame width taken by the steps' columns
	params []colID         // outer column feeding frame[inner+i]
	frame  []val.Value     // step columns in probe order, then the parameters

	prefixLen int           // leading steps that read no parameter
	prefix    [][]val.Value // their matches: copies of frame[:steps[prefixLen].off]
	collect   bool          // match is gathering prefix rows, not deciding existence
	fetched   int           // rows fetched from the subquery's tables, for EXPLAIN
}

// semiStep is one table of the subquery and how its rows are reached once
// the steps before it are in place.
type semiStep struct {
	tbl   int // position in the subquery's FROM list
	alias string
	table *engine.Table
	off   int // frame offset of this table's columns

	// Access path: a primary-key probe, an index probe, or (neither) a scan.
	pk      bool
	idx     *engine.Index
	keyConj []*semiConj // the equalities the probe enforces, one per probed column
	key     []val.Value // probe key; literal parts are filled in once
	keySlot []int       // frame slot feeding key[k]; -1 for a literal

	checks  [][2]int       // equi-conjuncts the probe does not cover: frame slots that must be Equal
	filters []compiledExpr // every other conjunct decidable once this row is in place
	corr    bool           // reads a parameter
}

// semiOperand is one side of an equi-conjunct of the subquery: a column of
// one of its tables, a parameter, or a literal.
type semiOperand struct {
	tbl   int // subquery table (FROM position); -1 for a parameter or literal
	col   int // column position in that table, or parameter number
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
// first, the enclosing query second (allocating a parameter). Once the
// probe order has fixed tblOff it is the colResolver of the subquery's
// expressions.
type semiScope struct {
	sj       *semiJoin
	inner    relSchema // subquery tables in FROM order
	innerTbl []int     // table of each inner column
	innerCol []int     // its position within that table
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
		return semiOperand{tbl: sc.innerTbl[i], col: sc.innerCol[i]}, nil
	}
	o, err := sc.outer.find(ref)
	if err != nil {
		return semiOperand{}, err
	}
	id := sc.outer[o]
	for p, have := range sc.sj.params {
		if have == id {
			return semiOperand{tbl: -1, col: p}, nil
		}
	}
	sc.sj.params = append(sc.sj.params, id)
	sc.sj.refs[id.rel] = true
	return semiOperand{tbl: -1, col: len(sc.sj.params) - 1}, nil
}

// slot is the frame position of a column or parameter operand.
func (sc *semiScope) slot(o semiOperand) int {
	if o.tbl < 0 {
		return sc.sj.inner + o.col
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
// enclosing query's schema.
func planSemiJoin(cat *engine.Catalog, ex sqlparser.Exists, outer relSchema) (*semiJoin, error) {
	q := ex.Query
	if q.Distinct || len(q.GroupBy) > 0 || len(q.OrderBy) > 0 || q.Limit >= 0 {
		return nil, fmt.Errorf("query: an EXISTS subquery supports only SELECT ... FROM ... [WHERE ...]")
	}
	for _, it := range q.Items {
		if it.Expr != nil && containsAggregate(it.Expr) {
			return nil, fmt.Errorf("query: aggregate in the select list of an EXISTS subquery")
		}
	}
	sj := &semiJoin{refs: make(map[string]bool)}
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
		for c, id := range tableSchema(tables[i]) {
			sc.inner = append(sc.inner, id)
			sc.innerTbl = append(sc.innerTbl, i)
			sc.innerCol = append(sc.innerCol, c)
		}
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
	// in place (literals, parameters, earlier steps); on a tie uncorrelated
	// before correlated, so the once-resolved prefix grows.
	placed := make([]bool, len(tables))
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
		best.off = sj.inner
		sc.tblOff[best.tbl] = sj.inner
		sj.inner += best.table.Schema().Arity()
		placed[best.tbl] = true
		sj.steps = append(sj.steps, best)
	}

	// Attach every conjunct to the first step at which it is decidable: as
	// the probe key where planSemiStep chose it, else as an equality check,
	// else as a compiled filter.
	clear(placed)
	for n, st := range sj.steps {
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
	sj.frame = make([]val.Value, sj.inner+len(sj.params))
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
	st := &semiStep{tbl: i, alias: b.alias, table: t}
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
	st.pk, st.idx = cols != nil && idx == nil, idx
	for _, c := range cols {
		st.keyConj = append(st.keyConj, bound[c])
		st.corr = st.corr || bound[c].outer
	}
	st.key = make([]val.Value, len(st.keyConj))
	return st, cost
}

// filter keeps the rows of rs for which the subquery has a match and
// records the step for EXPLAIN.
func (sj *semiJoin) filter(rs *rowSet, rec *planRecorder) (*rowSet, error) {
	src := make([]int, len(sj.params))
	for i, id := range sj.params {
		o, err := rs.schema.find(sqlparser.ColumnRef{Table: id.rel, Column: id.name})
		if err != nil {
			return nil, err
		}
		src[i] = o
	}
	out := &rowSet{schema: rs.schema}
	switch {
	case sj.prefixLen == len(sj.steps):
		// Nothing is correlated: one evaluation decides every row.
		ok, err := sj.match(0)
		if err != nil {
			return nil, err
		}
		if ok {
			out.rows = rs.rows
		}
	default:
		if sj.prefixLen > 0 {
			sj.collect = true
			if _, err := sj.match(0); err != nil {
				return nil, err
			}
			sj.collect = false
		}
		for _, row := range rs.rows {
			for i, o := range src {
				sj.frame[sj.inner+i] = row[o]
			}
			ok, err := sj.exists()
			if err != nil {
				return nil, err
			}
			if ok {
				out.rows = append(out.rows, row)
			}
		}
	}
	if rec != nil {
		aliases := make([]string, len(sj.steps))
		parts := make([]string, len(sj.steps))
		for i, st := range sj.steps {
			aliases[i] = st.alias
			switch {
			case st.pk:
				parts[i] = st.alias + " pk"
			case st.idx != nil:
				parts[i] = st.alias + " index=" + st.idx.Name()
			default:
				parts[i] = st.alias + " scan"
			}
			if i < sj.prefixLen {
				parts[i] += " once"
			}
		}
		rec.record(strings.Join(aliases, ","), "semi join",
			fmt.Sprintf("%s fetched=%d", strings.Join(parts, " -> "), sj.fetched), len(out.rows))
	}
	return out, nil
}

// exists decides the subquery for the parameters loaded in the frame.
func (sj *semiJoin) exists() (bool, error) {
	if sj.prefixLen == 0 {
		return sj.match(0)
	}
	for _, p := range sj.prefix {
		copy(sj.frame, p)
		if ok, err := sj.match(sj.prefixLen); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// match reports whether steps i.. have a match given the frame so far. In
// collect mode it instead records every match of the uncorrelated prefix.
func (sj *semiJoin) match(i int) (bool, error) {
	if sj.collect && i == sj.prefixLen {
		sj.prefix = append(sj.prefix, append([]val.Value(nil), sj.frame[:sj.steps[i].off]...))
		return false, nil
	}
	if i == len(sj.steps) {
		return true, nil
	}
	st := sj.steps[i]
	for k, s := range st.keySlot {
		if s >= 0 {
			st.key[k] = sj.frame[s]
		}
	}
	switch {
	case st.pk:
		if id, ok := st.table.LookupPK(st.key[0]); ok {
			return sj.try(i, st.table.Get(id))
		}
		return false, nil
	case st.idx != nil:
		for _, id := range st.idx.Lookup(st.key) {
			if ok, err := sj.try(i, st.table.Get(id)); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	default:
		var found bool
		var err error
		st.table.Scan(func(_ engine.RowID, row []val.Value) bool {
			found, err = sj.try(i, row)
			return !found && err == nil
		})
		return found, err
	}
}

// try places one fetched row of step i in the frame, applies the step's
// checks and filters, and continues with the next step.
func (sj *semiJoin) try(i int, row []val.Value) (bool, error) {
	st := sj.steps[i]
	sj.fetched++
	copy(sj.frame[st.off:], row)
	for _, c := range st.checks {
		if !val.Equal(sj.frame[c[0]], sj.frame[c[1]]) {
			return false, nil
		}
	}
	for _, f := range st.filters {
		if ok, err := truthy(f, sj.frame); !ok || err != nil {
			return false, err
		}
	}
	return sj.match(i + 1)
}
