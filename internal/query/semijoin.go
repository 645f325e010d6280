package query

import (
	"fmt"
	"slices"
	"strings"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// semiJoin is one EXISTS (subquery) conjunct. planChain plans the subquery
// once per statement as a chain whose first step finds the enclosing
// query's bindings already placed; its tables' columns take the frame
// region past the enclosing query's. The columns of the enclosing query it
// mentions are read from that frame in place; per outer row the chain runs
// on the same run loop as the positive join and stops at the first match,
// so no intermediate row set is built. Leading steps that read no outer
// column (a literal-user E-chain, say) are resolved once and their matches
// replayed for every outer row.
type semiJoin struct {
	*plan
	refs      []bool // outer bindings the subquery mentions, by FROM position
	prefixLen int    // leading steps that read no outer column
	per       chain  // what runs per outer row (see prepare)
	kept      int    // outer rows with a match, for EXPLAIN
}

// planSemiJoin plans the subquery of an EXISTS conjunct against the
// enclosing query's frame schema outer.
func planSemiJoin(cat *engine.Catalog, ex sqlparser.Exists, outer relSchema) (*semiJoin, error) {
	q := ex.Query
	if q.Distinct || len(q.GroupBy) > 0 || len(q.OrderBy) > 0 || q.Limit >= 0 {
		return nil, fmt.Errorf("query: an EXISTS subquery supports only SELECT ... FROM ... [WHERE ...]")
	}
	for _, it := range q.Items {
		if it.Expr != nil && ContainsAggregate(it.Expr) {
			return nil, fmt.Errorf("query: aggregate in the select list of an EXISTS subquery")
		}
	}
	// Within a subquery the enclosing columns are already marked outer: this
	// EXISTS is nested.
	if len(outer) > 0 && outer[0].outer {
		return nil, errExistsPosition
	}
	bindings, err := fromBindings(cat, q.From)
	if err != nil {
		return nil, err
	}
	p, err := planChain(cat, outer, bindings, q, false, nil)
	if err != nil {
		return nil, err
	}
	sj := &semiJoin{plan: p, refs: make([]bool, bindCount(outer))}
	for n, st := range p.steps {
		if !sj.readsOuter(st) && sj.prefixLen == n {
			sj.prefixLen = n + 1
		}
	}
	return sj, nil
}

// readsOuter marks in refs the enclosing query's bindings that step st
// reads, through its probe or hash key, its checks or its residuals, and
// reports whether it reads any.
func (sj *semiJoin) readsOuter(st *step) bool {
	reads := false
	slot := func(s int) {
		if s >= 0 && sj.schema[s].outer {
			sj.refs[sj.schema[s].bind], reads = true, true
		}
	}
	for _, s := range st.keySlot {
		slot(s)
	}
	for _, ck := range st.checks {
		slot(ck[0])
		slot(ck[1])
	}
	for _, r := range st.after {
		for b, used := range r.refs[:len(sj.refs)] {
			if used {
				sj.refs[b], reads = true, true
			}
		}
	}
	return reads
}

// prepare readies the per-row chain before the outer chain runs: each
// step's once-only work first (build sides collected), then the
// uncorrelated prefix. With nothing correlated one evaluation decides every
// row; otherwise the prefix's matches are collected once, as copies of its
// frame columns, and replayed ahead of the correlated steps.
func (sj *semiJoin) prepare(frame []val.Value) error {
	found := func([]val.Value) (bool, error) { return true, nil }
	if sj.empty {
		sj.per = chain{term: func([]val.Value) (bool, error) { return false, nil }}
		return nil
	}
	for _, st := range sj.steps {
		if err := st.prepare(frame); err != nil {
			return err
		}
	}
	once := chain{steps: sj.steps[:sj.prefixLen], frame: frame, term: found}
	switch {
	case sj.prefixLen == len(sj.steps):
		ok, err := once.run(0)
		if err != nil {
			return err
		}
		sj.per = chain{term: func([]val.Value) (bool, error) { return ok, nil }}
	case sj.prefixLen > 0:
		// The prefix's columns are copied as one span of the frame, which
		// may cover a later step's columns as well (a chain's columns are
		// laid out in FROM order). Those are never read before that step
		// places them again.
		lo, hi := len(frame), 0
		for _, st := range once.steps {
			lo, hi = min(lo, st.off), max(hi, st.off+st.table.Schema().Arity())
		}
		replay := &step{fetch: fetchRows, off: lo}
		once.term = func([]val.Value) (bool, error) {
			replay.rows = append(replay.rows, slices.Clone(frame[lo:hi]))
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

// explain records the semi-join as one step: its steps in order, the
// uncorrelated prefix marked, the rows its tables fetched (a hash or cross
// join's build side read once among them), the outer rows kept.
func (sj *semiJoin) explain(rec *planRecorder) {
	if sj.empty {
		rec.record("", "semi join", "constant-false predicate", 0)
		return
	}
	aliases := make([]string, len(sj.steps))
	parts := make([]string, len(sj.steps))
	fetched := 0
	for i, st := range sj.steps {
		aliases[i] = st.alias
		switch {
		case st.src != nil:
			parts[i] = st.alias + " " + st.op
			fetched += st.src.fetched
		case st.fetch == fetchScan:
			parts[i] = st.alias + " scan"
		case st.fetch == fetchWalk:
			parts[i] = st.alias + " range walk index=" + st.idx.Name()
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
