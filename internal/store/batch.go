package store

import (
	"errors"
	"fmt"
	"sort"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// BatchOp is one mutation of a batch: an insert (the default), a delete, a
// replace of an explicit belief statement, or a user registration. A
// replace substitutes Stmt's tuple with NewVals in the same world, sign and
// relation (BeliefSQL UPDATE = delete + insert); like a delete it is a
// no-op when Stmt is not explicitly present. A registration (non-empty
// User) binds the name to the next uid and adds the back edges E(x, uid, 0)
// from every world (Sect. 5.3); its Stmt is unused.
type BatchOp struct {
	Delete  bool
	Replace bool
	Stmt    core.Statement
	NewVals []val.Value // Replace: the replacement tuple's values
	User    string      // registration: the name to bind
}

// walOp renders the operation as the WAL record that journals it.
func (op BatchOp) walOp() wal.Op {
	switch {
	case op.User != "":
		return wal.AddUser(op.User)
	case op.Delete:
		return wal.Delete(op.Stmt)
	case op.Replace:
		return wal.Replace(op.Stmt, op.NewVals)
	default:
		return wal.Insert(op.Stmt)
	}
}

// batchOps is walOp's inverse, for records read back from a WAL — the
// store's own on recovery, a primary's on a replica. Only statement
// mutations and registrations can be members of a group.
func batchOps(ops []wal.Op) ([]BatchOp, error) {
	out := make([]BatchOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case wal.KindAddUser:
			if op.Name == "" {
				return nil, fmt.Errorf("store: %s member with an empty name", op.Kind)
			}
			out[i] = BatchOp{User: op.Name}
		case wal.KindInsert:
			out[i] = BatchOp{Stmt: op.Stmt}
		case wal.KindDelete:
			out[i] = BatchOp{Delete: true, Stmt: op.Stmt}
		case wal.KindReplace:
			out[i] = BatchOp{Replace: true, Stmt: op.Stmt, NewVals: op.NewVals}
		default:
			return nil, fmt.Errorf("store: %s cannot be a member of a batch group", op.Kind)
		}
	}
	return out, nil
}

// BatchResult reports a batch's outcome. On error nothing was applied (a
// batch is all-or-nothing) and the zero BatchResult is returned.
type BatchResult struct {
	Applied    int    // statements applied: the whole batch on success
	Changed    int    // statements that changed state (non-duplicate, non-no-op)
	ChangedOps []bool // per-statement changed flags, parallel to the batch
}

// BatchOutcome is one batch's result within an ApplyBatchGroupTokens round:
// its BatchResult on success, or the error that rolled it (alone) back.
type BatchOutcome struct {
	Res BatchResult
	Err error
}

// ApplyBatch applies a group of belief mutations atomically: one
// writer-lock acquisition, one WAL commit boundary, one reconciliation
// pass, all-or-nothing (see ApplyBatchGroupTokens).
func (st *Store) ApplyBatch(ops []BatchOp) (BatchResult, error) {
	return st.ApplyBatchToken(ops, "")
}

// ApplyBatchToken is ApplyBatch carrying a client idempotency token (""
// for none). A token already in the applied-token table short-circuits:
// the batch is not journaled or re-applied and the original result is
// returned, so a client retry after a lost acknowledgement — even one
// spanning a server restart, since recovery rebuilds the table from the
// journaled markers — applies the batch exactly once. Only successful
// batches are recorded; a failed batch is deterministic, so a retry
// re-derives the same failure.
func (st *Store) ApplyBatchToken(ops []BatchOp, token string) (BatchResult, error) {
	out := st.ApplyBatchGroupTokens([][]BatchOp{ops}, []string{token})
	return out[0].Res, out[0].Err
}

// ApplyBatchGroupTokens is the store's one commit primitive; every other
// statement mutation and every user registration (Insert, Delete, Replace,
// AddUser, ApplyBatch, BulkLoad, the Coalescer, replica apply and WAL
// replay) is a caller of it. It applies several independent batches under
// one writer-lock acquisition and one WAL commit boundary: the batches are validated up front, every valid one is
// journaled write-ahead in a single write acknowledged by a single fsync
// (wal.Log.AppendGroups), each is then applied through the update
// algorithms as its own engine transaction with dependent-world
// reconciliation deferred to one pass per batch, and one snapshot is
// published for the round. This is what lets mutations arriving
// concurrently from many clients share one disk sync instead of paying one
// each.
//
// The deferral is the algorithmic half of group commit: instead of
// re-deriving every dependent world's key slice after each statement
// (Algorithm 4 lines 8-14), the affected (relation, world, key) anchors are
// collected across the batch and each distinct dependent slice is
// reconciled exactly once, in the ascending-depth order Algorithm 4
// requires. The result is identical to applying the statements one by one;
// TestEntryPointsMatchOracle asserts the equivalence.
//
// Each batch is individually atomic. Any member failing mid-batch — an
// ErrConflict, an arity or type error, a name an earlier batch of the
// round registered — rolls that batch (alone) back: tables through the
// engine transaction's undo log, the logical world and user catalogs
// through an explicit rewind. The failure is deterministic (a function of
// the store state and the batch alone), and the group is already
// journaled, so crash-replay re-runs the same batch, reaches the same
// failure, and rolls back identically.
//
// tokens is nil or holds one idempotency token per batch ("" = none). A
// batch whose token is already in the applied-token table reports its
// original result without being journaled or re-applied; the rest are
// journaled with their tokens in the BatchBegin markers and recorded on
// success.
//
// Outcomes are positional: outcome i belongs to groups[i]. A batch that
// fails validation is excluded before journaling and reports its error; an
// empty batch succeeds with a zero BatchResult; a journaling failure fails
// every batch of the round (nothing was applied).
func (st *Store) ApplyBatchGroupTokens(groups [][]BatchOp, tokens []string) []BatchOutcome {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.commitLocked(groups, tokens)
}

// commitLocked is ApplyBatchGroupTokens under the already-held writer lock.
func (st *Store) commitLocked(groups [][]BatchOp, tokens []string) []BatchOutcome {
	out := make([]BatchOutcome, len(groups))
	failAll := func(err error) []BatchOutcome {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if tokens != nil && len(tokens) != len(groups) {
		return failAll(fmt.Errorf("store: %d token(s) for %d batch group(s)", len(tokens), len(groups)))
	}
	token := func(i int) string {
		if tokens == nil {
			return ""
		}
		return tokens[i]
	}
	valid := make([]int, 0, len(groups))
	// A retry can land in the same round as its original (the first
	// attempt still queued when the resend arrives): journaling both would
	// put the token in the WAL twice and replay would apply it twice.
	// Aliases ride along un-journaled and copy the original's outcome.
	var inRound map[string]int
	var aliases map[int]int
	for i, ops := range groups {
		if len(ops) == 0 {
			continue // vacuous success: nothing to journal or apply
		}
		t := token(i)
		if t != "" {
			if res, ok := st.appliedTokens[t]; ok {
				out[i].Res = res // exactly-once: retry of an applied batch
				continue
			}
			if first, ok := inRound[t]; ok {
				if aliases == nil {
					aliases = make(map[int]int)
				}
				aliases[i] = first
				continue
			}
		}
		if err := st.validateBatchLocked(ops); err != nil {
			out[i].Err = err
			continue
		}
		if t != "" {
			if inRound == nil {
				inRound = make(map[string]int)
			}
			inRound[t] = i
		}
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return out // nothing journaled or applied: nothing to publish
	}
	if err := st.logGroups(groups, tokens, valid); err != nil {
		for _, i := range valid {
			out[i].Err = err
		}
	} else {
		for _, i := range valid {
			out[i].Res, out[i].Err = st.applyBatchLocked(groups[i])
			if t := token(i); t != "" && out[i].Err == nil {
				st.recordTokenLocked(t, out[i].Res)
			}
		}
		st.publishLocked()
	}
	for i, first := range aliases {
		out[i] = out[first]
	}
	return out
}

// logGroups journals the groups picked by valid as independent WAL groups
// under a single fsync, each group's idempotency token ("" = none) recorded
// in its BatchBegin marker. It is the only place statement mutations and
// registrations reach the journal. In-memory stores (wal == nil) skip
// logging. After an append failure the store refuses further mutations:
// bytes after a torn record are unreachable to recovery, so acknowledging
// later operations would silently drop them.
func (st *Store) logGroups(groups [][]BatchOp, tokens []string, valid []int) error {
	if st.closed {
		return ErrClosed
	}
	if st.wal == nil {
		return nil
	}
	if st.walErr != nil {
		return st.readOnlyErrLocked()
	}
	wgroups := make([][]wal.Op, len(valid))
	var wtokens []string
	if tokens != nil {
		wtokens = make([]string, len(valid))
	}
	records := uint64(0)
	for k, i := range valid {
		wops := make([]wal.Op, len(groups[i]))
		for j, op := range groups[i] {
			wops[j] = op.walOp()
		}
		wgroups[k] = wops
		if tokens != nil {
			wtokens[k] = tokens[i]
		}
		records += uint64(len(wops)) + 1 // members + marker
	}
	if err := st.wal.AppendGroups(wgroups, wtokens); err != nil {
		// Oversized records are refused before any byte is written; only
		// genuine I/O failures poison the store (see logOp).
		if !errors.Is(err, wal.ErrRecordTooLarge) {
			st.walErr = err
		}
		return err
	}
	st.walCount += records
	return nil
}

// maxAppliedTokens bounds the exactly-once dedup table. FIFO eviction
// caps the retry horizon: a retry older than the last maxAppliedTokens
// successful batches can no longer be deduplicated, which is far beyond
// any client's backoff schedule. Checkpoint truncation bounds it too —
// tokens are journaled in the WAL, not the snapshot, so only batches
// since the last checkpoint survive a restart.
const maxAppliedTokens = 4096

// recordTokenLocked enters a successfully applied batch's token into the
// dedup table, evicting the oldest entries past the bound.
func (st *Store) recordTokenLocked(token string, res BatchResult) {
	if _, ok := st.appliedTokens[token]; ok {
		return
	}
	if st.appliedTokens == nil {
		st.appliedTokens = make(map[string]BatchResult)
	}
	st.appliedTokens[token] = res
	st.tokenOrder = append(st.tokenOrder, token)
	for len(st.tokenOrder) > maxAppliedTokens {
		delete(st.appliedTokens, st.tokenOrder[0])
		st.tokenOrder = st.tokenOrder[1:]
	}
}

// validateBatchLocked checks a batch before anything is journaled or any
// table touched, so a malformed batch is rejected whole with no journal
// record. Deletes and replaces are lenient: an unknown world or absent
// statement is a no-op, only the relation must exist. A registration must
// name a user the pre-round state has not bound; a statement must name
// users it has bound, so it cannot name one registered in the same batch.
func (st *Store) validateBatchLocked(ops []BatchOp) error {
	for i, op := range ops {
		if op.User != "" {
			if op.Delete || op.Replace {
				return batchErr(ops, i, fmt.Errorf("store: registration of %q is also a delete or a replace", op.User))
			}
			if _, dup := st.usersByName[op.User]; dup {
				return batchErr(ops, i, errUserExists(op.User))
			}
			continue
		}
		if _, ok := st.rels[op.Stmt.Tuple.Rel]; !ok {
			return batchErr(ops, i, fmt.Errorf("store: unknown relation %q", op.Stmt.Tuple.Rel))
		}
		if !op.Stmt.Path.Valid() {
			return batchErr(ops, i, fmt.Errorf("store: invalid belief path %s", op.Stmt.Path))
		}
		if op.Delete && op.Replace {
			return batchErr(ops, i, fmt.Errorf("store: operation is both a delete and a replace"))
		}
		if op.Delete || op.Replace {
			continue
		}
		for _, u := range op.Stmt.Path {
			if _, ok := st.usersByID[u]; !ok {
				return batchErr(ops, i, fmt.Errorf("store: unknown user %d in path %s", u, op.Stmt.Path))
			}
		}
	}
	return nil
}

// errUserExists refuses a registration of a bound name.
func errUserExists(name string) error { return fmt.Errorf("store: user %q already exists", name) }

// batchErr names the failing member of a multi-statement batch; a batch of
// one reports the cause as is.
func batchErr(ops []BatchOp, i int, err error) error {
	if len(ops) == 1 {
		return err
	}
	if ops[i].User != "" {
		return fmt.Errorf("store: batch member %d (registration of %q): %w", i, ops[i].User, err)
	}
	return fmt.Errorf("store: batch statement %d (%s): %w", i, ops[i].Stmt, err)
}

// applyBatchLocked runs one already-validated, already-journaled batch
// through the update algorithms inside its own engine transaction:
// all-or-nothing, with dependent-world reconciliation deferred to one pass
// at the end.
func (st *Store) applyBatchLocked(ops []BatchOp) (BatchResult, error) {
	txn, err := st.cat.Begin()
	if err != nil {
		return BatchResult{}, err
	}
	mark := st.markLogical()
	fail := func(err error) (BatchResult, error) {
		txn.Rollback()
		st.rewindLogical(mark)
		return BatchResult{}, err
	}
	res := BatchResult{ChangedOps: make([]bool, len(ops))}
	var pend pendingReconcile
	for i, op := range ops {
		changed, err := st.applyOpLocked(op, &pend)
		if err != nil {
			return fail(batchErr(ops, i, err))
		}
		if changed {
			res.ChangedOps[i] = true
			res.Changed++
		}
	}
	if err := st.flushReconcile(pend); err != nil {
		return fail(err)
	}
	if err := txn.Commit(); err != nil {
		return fail(err)
	}
	res.Applied = len(ops)
	return res, nil
}

// applyOpLocked applies one batch member, keeping the statement count n in
// step (a failed batch rewinds it with the rest of the logical state).
func (st *Store) applyOpLocked(op BatchOp, pend *pendingReconcile) (bool, error) {
	if op.User != "" {
		// Validation saw the pre-round state; an earlier batch of the
		// round may have bound the name since.
		if _, dup := st.usersByName[op.User]; dup {
			return false, errUserExists(op.User)
		}
		uid := core.UserID(st.nextUID)
		st.nextUID++
		return true, st.registerUser(uid, op.User)
	}
	ri := st.rels[op.Stmt.Tuple.Rel]
	if !op.Delete && !op.Replace {
		y, err := st.idWorld(op.Stmt.Path)
		if err != nil {
			return false, err
		}
		return st.insertTuple(ri, op.Stmt, y, pend)
	}
	// Resolve at apply time: an earlier statement of the same batch may
	// have created or removed the target.
	y, key, target := st.resolveExplicit(ri, op.Stmt)
	if target == nil {
		return false, nil
	}
	if err := ri.v.Delete(target.rowID); err != nil {
		return false, err
	}
	st.n--
	// The world may now inherit rows the explicit statement was blocking.
	pend.add(ri, y, key)
	if op.Delete {
		return true, nil
	}
	repl := core.Statement{Path: op.Stmt.Path, Sign: op.Stmt.Sign, Tuple: core.Tuple{Rel: ri.def.Name, Vals: op.NewVals}}
	_, err := st.insertTuple(ri, repl, y, pend)
	return true, err
}

// logicalMark snapshots the logical world and user catalogs so a rollback
// can undo them alongside the engine transaction's table undo log: idWorld
// registers new worlds in widByPath/pathByWid (and bumps nextWid/nextTid),
// and a registration binds a name in usersByID/usersByName (and bumps
// nextUID), outside any table. Leaving those entries behind after a
// rollback would let later statements resolve paths to worlds whose D/E/S
// rows were undone, or names whose Users row was.
type logicalMark struct {
	nextWid, nextTid, nextUID int64
	n                         int
}

func (st *Store) markLogical() logicalMark {
	return logicalMark{nextWid: st.nextWid, nextTid: st.nextTid, nextUID: st.nextUID, n: st.n}
}

// rewindLogical drops every world and user registered since the mark
// (idWorld and registrations only ever add them, with ascending ids) and
// restores the counters.
func (st *Store) rewindLogical(m logicalMark) {
	if m.nextUID != st.nextUID {
		st.usersGen++
	}
	for uid := m.nextUID; uid < st.nextUID; uid++ {
		if name, ok := st.usersByID[core.UserID(uid)]; ok {
			delete(st.usersByName, name)
			delete(st.usersByID, core.UserID(uid))
		}
	}
	if m.nextWid != st.nextWid {
		st.worldsGen++
	}
	for wid := m.nextWid; wid < st.nextWid; wid++ {
		if p, ok := st.pathByWid[wid]; ok {
			delete(st.widByPath, p.Key())
			delete(st.pathByWid, wid)
		}
	}
	st.nextWid, st.nextTid, st.nextUID, st.n = m.nextWid, m.nextTid, m.nextUID, m.n
}

// pendingReconcile collects the (relation, world, key) anchors a batch's
// statements touched, so dependent-world reconciliation runs once per
// distinct slice at commit time instead of once per statement.
type pendingReconcile []anchor

type anchor struct {
	ri  *relInfo
	wid int64
	key val.Value
}

func (p *pendingReconcile) add(ri *relInfo, wid int64, key val.Value) {
	*p = append(*p, anchor{ri: ri, wid: wid, key: key})
}

// flushReconcile expands the collected anchors to every affected slice —
// the anchor world itself plus all its dependents, computed after the whole
// batch so worlds created mid-batch are included — deduplicates them, and
// reconciles each once in ascending depth order. Depth order is what
// Algorithm 4 requires: reconcileKeySlice re-derives a world's implicit
// beliefs from its deepest suffix state, which is strictly shallower and,
// being in the same anchor's closure, has already been reconciled.
func (st *Store) flushReconcile(p pendingReconcile) error {
	var slices []anchor
	for _, a := range p {
		slices = append(slices, a)
		for _, z := range st.dependents(st.pathByWid[a.wid]) {
			slices = append(slices, anchor{ri: a.ri, wid: z, key: a.key})
		}
	}
	// One anchor's closure is already distinct and depth-ordered (see
	// dependents); only several anchors can overlap or interleave.
	if len(p) > 1 {
		type sliceKey struct {
			rel string
			wid int64
			key string
		}
		seen := make(map[sliceKey]bool, len(slices))
		distinct := slices[:0]
		for _, s := range slices {
			k := sliceKey{rel: s.ri.def.Name, wid: s.wid, key: s.key.Key()}
			if !seen[k] {
				seen[k] = true
				distinct = append(distinct, s)
			}
		}
		slices = distinct
		sort.Slice(slices, func(i, j int) bool {
			pi, pj := st.pathByWid[slices[i].wid], st.pathByWid[slices[j].wid]
			if len(pi) != len(pj) {
				return len(pi) < len(pj)
			}
			if ki, kj := pi.Key(), pj.Key(); ki != kj {
				return ki < kj
			}
			if ri, rj := slices[i].ri.def.Name, slices[j].ri.def.Name; ri != rj {
				return ri < rj
			}
			return slices[i].key.Key() < slices[j].key.Key()
		})
	}
	for _, s := range slices {
		if err := st.reconcileKeySlice(s.ri, s.wid, s.key); err != nil {
			return err
		}
	}
	return nil
}
