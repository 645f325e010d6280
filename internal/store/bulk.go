package store

import "beliefdb/internal/core"

// BulkLoad applies many insert statements under a single writer-lock hold
// and publishes a single snapshot when the load completes. fn receives an
// insert function with exactly the semantics of Store.Insert — including
// per-statement rejection: a duplicate or conflicting statement rolls back
// only itself, and the load continues — so statement sources that probe
// acceptance (such as gen.Load) plug in unchanged.
//
// The point of BulkLoad is amortization, not atomicity. Every statement is
// journaled and committed individually, exactly as Insert would (crash
// recovery replays the applied prefix), but the per-statement snapshot
// publication — and with it the copy-on-write epoch turnover that makes
// publication O(delta) — is deferred to the end of the load. A loader
// inserting n statements therefore pays one epoch of structure copying
// instead of n, which is the same amortization WAL replay has always used.
// Readers are never blocked: they keep resolving against the snapshot
// published before the load until the one publish at the end makes the
// whole load visible at once.
//
// fn must not call other Store methods on st: the writer lock is already
// held, and mutators would deadlock. Readers inside fn are safe but observe
// only the pre-load snapshot.
func (st *Store) BulkLoad(fn func(insert func(core.Statement) (bool, error)) error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	st.bulk = true
	defer func() { st.bulk = false }()
	return fn(func(stmt core.Statement) (bool, error) {
		out := st.commitLocked([][]BatchOp{{{Stmt: stmt}}}, nil)
		return out[0].Res.Changed == 1, out[0].Err
	})
}
