package store

// Tests for the group-commit batch pipeline: equivalence with the
// per-statement update algorithms, all-or-nothing rollback, crash
// injection across batch commit boundaries, and the WAL-ordering fixes
// (journal-after-Begin, durable truncation) this PR ships with it.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// batchStep is one unit of the batch crash script: a single-statement op or
// a whole batch, each atomic on its own.
type batchStep struct {
	name string
	do   func(st *Store) error
}

func insStep(p core.Path, sg core.Sign, rel, k, a string) batchStep {
	return batchStep{fmt.Sprintf("insert %v %s", p, k), func(st *Store) error {
		_, err := st.Insert(crashStmt(p, sg, rel, k, a))
		return err
	}}
}

func batchStepOf(name string, ops ...BatchOp) batchStep {
	return batchStep{name, func(st *Store) error {
		_, err := st.ApplyBatch(ops)
		return err
	}}
}

func bIns(p core.Path, sg core.Sign, rel, k, a string) BatchOp {
	return BatchOp{Stmt: crashStmt(p, sg, rel, k, a)}
}

func bDel(p core.Path, sg core.Sign, rel, k, a string) BatchOp {
	return BatchOp{Delete: true, Stmt: crashStmt(p, sg, rel, k, a)}
}

// batchScript mixes single-statement mutations with batches that insert,
// delete, create worlds mid-batch, and touch several relations and keys —
// every group-commit shape the recovery path must reproduce.
func batchScript() []batchStep {
	return []batchStep{
		{"adduser u1", func(st *Store) error { _, err := st.AddUser("u1"); return err }},
		{"adduser u2", func(st *Store) error { _, err := st.AddUser("u2"); return err }},
		insStep(nil, core.Pos, "S", "k1", "bald eagle"),
		batchStepOf("batch ingest",
			bIns(core.Path{1}, core.Neg, "S", "k1", "bald eagle"),
			bIns(core.Path{1}, core.Pos, "S", "k2", "crow"),
			bIns(core.Path{2, 1}, core.Pos, "C", "c1", "found feathers"),
			bIns(core.Path{2}, core.Pos, "S", "k2", "raven"),
		),
		batchStepOf("batch mixed insert+delete",
			bIns(nil, core.Pos, "C", "c2", "root note"),
			bDel(core.Path{1}, core.Pos, "S", "k2", "crow"),
			bIns(core.Path{1, 2}, core.Pos, "S", "k3", "osprey"),
			bDel(nil, core.Pos, "S", "never-there", "x"), // no-op delete inside a batch
		),
		insStep(core.Path{2}, core.Neg, "S", "k3", "osprey"),
		batchStepOf("batch same-slice dedup",
			bIns(nil, core.Pos, "S", "k4", "heron"),
			bDel(nil, core.Pos, "S", "k4", "heron"),
			bIns(nil, core.Pos, "S", "k4", "grey heron"),
		),
		{"adduser u3", func(st *Store) error { _, err := st.AddUser("u3"); return err }},
		batchStepOf("batch new user world",
			bIns(core.Path{3}, core.Pos, "C", "c3", "late note"),
			bIns(core.Path{3, 1}, core.Pos, "S", "k1", "fish eagle"),
		),
	}
}

func buildBatchShadow(t *testing.T, n int) *Store {
	t.Helper()
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range batchScript()[:n] {
		if err := s.do(st); err != nil {
			t.Fatalf("shadow step %d (%s): %v", i, s.name, err)
		}
	}
	return st
}

// GenTestRelation mirrors bench.GenRelation without importing it (the
// bench package imports store).
func GenTestRelation() Relation {
	cols := make([]Column, 0, len(gen.RelColumns()))
	for _, c := range gen.RelColumns() {
		cols = append(cols, Column{Name: c, Type: val.KindString})
	}
	return Relation{Name: gen.DefaultRel, Columns: cols}
}

// TestBatchConflictRollsBackWhole: a mid-batch Γ2 conflict rolls back every
// statement of the batch — including worlds created by earlier members,
// whose logical catalog entries must be rewound alongside the table undo —
// and, on a durable store, replays to the same rollback after reopen.
func TestBatchConflictRollsBackWhole(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	st.AddUser("u2")
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k1", "crow")); err != nil {
		t.Fatal(err)
	}

	before := st.Stats()
	_, err = st.ApplyBatch([]BatchOp{
		bIns(nil, core.Pos, "S", "k9", "first"),
		bIns(core.Path{2, 1}, core.Pos, "C", "c9", "creates two worlds"),
		bIns(core.Path{1}, core.Neg, "S", "k1", "crow"), // Γ2: explicit positive exists
		bIns(nil, core.Pos, "S", "k10", "never reached"),
	})
	if err == nil {
		t.Fatal("conflicting batch should fail")
	}
	var conflict *ErrConflict
	if !errors.As(err, &conflict) {
		t.Errorf("error %v should wrap ErrConflict", err)
	}
	after := st.Stats()
	if before.String() != after.String() {
		t.Errorf("failed batch changed state:\nbefore %safter  %s", before, after)
	}

	// The batch is journaled; replay must reach the identical rollback.
	moreOps := []BatchOp{bIns(nil, core.Pos, "S", "k11", "post-conflict")}
	if _, err := st.ApplyBatch(moreOps); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	shadow, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	shadow.AddUser("u1")
	shadow.AddUser("u2")
	shadow.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k1", "crow"))
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k11", "post-conflict"))
	assertSameStore(t, "conflict batch replay", shadow, re)
}

// TestBatchValidationRejectsWhole: validation failures surface before
// anything is journaled or applied.
func TestBatchValidationRejectsWhole(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	before, view := st.Stats(), st.pin()
	cases := [][]BatchOp{
		{bIns(nil, core.Pos, "S", "ok", "x"), bIns(nil, core.Pos, "Nope", "k", "x")},
		{bIns(nil, core.Pos, "S", "ok", "x"), bIns(core.Path{9}, core.Pos, "S", "k", "x")},
		{bIns(nil, core.Pos, "S", "ok", "x"), bIns(core.Path{1, 1}, core.Pos, "S", "k", "x")},
	}
	for i, ops := range cases {
		if _, err := st.ApplyBatch(ops); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("rejected batches changed state:\nbefore %safter  %s", before, after)
	}
	if res, err := st.ApplyBatch(nil); err != nil || res.Applied != 0 {
		t.Errorf("empty batch: %+v, %v", res, err)
	}
	if st.pin() != view {
		t.Error("a round that journaled and applied nothing published a new view")
	}
}

// TestBatchCrashInjectionSweep kills the WAL sink after every byte budget
// across a script of singles and batches, reopens, and asserts the
// recovered state equals the committed step prefix — a batch is recovered
// whole or not at all, never partially.
func TestBatchCrashInjectionSweep(t *testing.T) {
	script := batchScript()
	runSteps := func(t *testing.T, dir string, limit int64) int {
		t.Helper()
		wrapWALSink = func(s wal.Sink) wal.Sink { return &wal.LimitSink{W: s, Limit: limit} }
		defer func() { wrapWALSink = nil }()
		st, err := OpenAt(dir, crashRels())
		if err != nil {
			return -1
		}
		defer st.Close()
		committed := 0
		for _, step := range script {
			if err := step.do(st); err != nil {
				return committed
			}
			committed++
		}
		return committed
	}

	cleanDir := t.TempDir()
	if full := runSteps(t, cleanDir, 1<<30); full != len(script) {
		t.Fatalf("clean run committed %d/%d steps", full, len(script))
	}
	walSize, err := os.Stat(filepath.Join(cleanDir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}

	shadows := map[int]*Store{}
	for limit := int64(0); limit <= walSize.Size(); limit += 11 {
		dir := t.TempDir()
		committed := runSteps(t, dir, limit)
		re, err := OpenAt(dir, crashRels())
		if err != nil {
			t.Fatalf("limit %d: reopen after crash: %v", limit, err)
		}
		wantN := max(committed, 0)
		shadow, ok := shadows[wantN]
		if !ok {
			shadow = buildBatchShadow(t, wantN)
			shadows[wantN] = shadow
		}
		assertSameStore(t, fmt.Sprintf("limit %d (%d steps committed)", limit, wantN), shadow, re)
		// The recovered store accepts new batches on its clean tail.
		if _, err := re.ApplyBatch([]BatchOp{bIns(nil, core.Pos, "C", "post", "crash")}); err != nil {
			t.Fatalf("limit %d: batch after recovery: %v", limit, err)
		}
		re.Close()
	}
}

// TestBatchCheckpointRoundTrip: batches survive checkpoint + reopen, and a
// snapshot taken right after a batch skips exactly the batch's records
// (marker included) when the WAL was never truncated.
func TestBatchCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	script := batchScript()
	for _, s := range script[:5] {
		if err := s.do(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, s := range script[5:] {
		if err := s.do(st); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, "checkpoint mid-script", buildBatchShadow(t, len(script)), re)
	re.Close()
}

// TestBeginFailureNotJournaled: a raw-SQL BEGIN (or ROLLBACK) is refused
// before it is journaled, and leaves no transaction open behind it — the
// belief mutations that follow commit as usual, and reopening replays
// exactly them.
func TestBeginFailureNotJournaled(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	ops := func(st *Store, label string) {
		t.Helper()
		if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k2", "after begin")); err != nil {
			t.Fatalf("%s: Insert: %v", label, err)
		}
		if _, err := st.Replace(crashStmt(nil, core.Pos, "S", "k1", "kept"),
			core.Tuple{Rel: "S", Vals: []val.Value{val.Str("k1"), val.Str("renamed")}}); err != nil {
			t.Fatalf("%s: Replace: %v", label, err)
		}
		if _, err := st.ApplyBatch([]BatchOp{bIns(nil, core.Pos, "S", "k3", "batch")}); err != nil {
			t.Fatalf("%s: ApplyBatch: %v", label, err)
		}
		if _, err := st.Delete(crashStmt(nil, core.Pos, "S", "k2", "after begin")); err != nil {
			t.Fatalf("%s: Delete: %v", label, err)
		}
	}
	st.AddUser("u1")
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k1", "kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("BEGIN"); err == nil {
		t.Fatal("raw-SQL BEGIN should be refused")
	}
	ops(st, "after refused BEGIN")
	if _, err := st.SQL("ROLLBACK"); err == nil {
		t.Fatal("raw-SQL ROLLBACK should be refused")
	}
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k4", "after")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	data, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _, err := wal.Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		op, err := wal.DecodeOp(p)
		if err != nil {
			t.Fatal(err)
		}
		if op.Kind == wal.KindSQL {
			t.Errorf("refused script journaled: %q", op.SQL)
		}
	}

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	shadow, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	shadow.AddUser("u1")
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k1", "kept"))
	ops(shadow, "shadow")
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k4", "after"))
	assertSameStore(t, "begin-failure divergence", shadow, re)
}

// TestConflictRollbackRewindsWorlds: a single conflicting insert whose
// target world was created on the way must not leave the world registered
// in the path catalogs after the rollback (the map entries previously
// outlived their undone D/E/S rows).
func TestConflictRollbackRewindsWorlds(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	st.AddUser("u1")
	st.AddUser("u2")
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k1", "heron")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k2", "crow")); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Neg, "S", "k2", "crow")); err == nil {
		t.Fatal("conflicting insert should fail")
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("conflict changed state:\nbefore %safter  %s", before, after)
	}
	// Now a conflict inside a batch that first creates a brand-new world.
	before = st.Stats()
	_, err = st.ApplyBatch([]BatchOp{
		bIns(core.Path{2, 1}, core.Pos, "C", "c1", "new worlds"),
		bIns(core.Path{1}, core.Neg, "S", "k2", "crow"),
	})
	if err == nil {
		t.Fatal("conflicting batch should fail")
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("batch conflict leaked worlds:\nbefore %safter  %s", before, after)
	}
	if _, ok := st.WidOf(core.Path{2, 1}); ok {
		t.Error("rolled-back world {2,1} still registered in the path catalog")
	}
}
