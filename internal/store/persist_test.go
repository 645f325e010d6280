package store

// Crash-injection recovery tests. These run in the internal test package so
// they can reach the wrapWALSink seam and inject wal.LimitSink, which fails
// (leaving a torn record behind) after a byte budget — the observable
// behaviour of a process dying mid-append. The harness sweeps the budget
// across the whole WAL and proves, for every cut point, that recovery
// reproduces exactly the committed prefix of the workload.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/snapshot"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

func crashRels() []Relation {
	return []Relation{
		{Name: "S", Columns: []Column{
			{Name: "sid", Type: val.KindString},
			{Name: "species", Type: val.KindString},
		}},
		{Name: "C", Columns: []Column{
			{Name: "cid", Type: val.KindString},
			{Name: "note", Type: val.KindString},
		}},
	}
}

func crashStmt(path core.Path, sign core.Sign, rel, key, att string) core.Statement {
	return core.Statement{Path: path, Sign: sign, Tuple: core.Tuple{
		Rel: rel, Vals: []val.Value{val.Str(key), val.Str(att)},
	}}
}

// crashOp is one step of the deterministic workload script. do reports
// whether the op changed state: after a WAL failure only no-ops (which
// journal nothing) may still report success.
type crashOp struct {
	name string
	do   func(st *Store) (changed bool, err error)
}

// crashScript is a workload touching every logged operation kind: user
// registration, positive/negative/nested inserts, deletes that resurrect
// inherited beliefs, replaces, vacuum, and rebuild.
func crashScript() []crashOp {
	ins := func(p core.Path, sg core.Sign, rel, k, a string) crashOp {
		return crashOp{fmt.Sprintf("insert %v %s %s", p, k, a), func(st *Store) (bool, error) {
			return st.Insert(crashStmt(p, sg, rel, k, a))
		}}
	}
	user := func(name string) crashOp {
		return crashOp{"adduser " + name, func(st *Store) (bool, error) {
			_, err := st.AddUser(name)
			return err == nil, err
		}}
	}
	return []crashOp{
		user("u1"),
		user("u2"),
		user("u3"),
		ins(nil, core.Pos, "S", "k1", "bald eagle"),
		ins(core.Path{1}, core.Neg, "S", "k1", "bald eagle"),
		ins(core.Path{1}, core.Pos, "S", "k2", "crow"),
		ins(core.Path{2, 1}, core.Pos, "C", "c1", "found feathers"),
		ins(core.Path{2}, core.Pos, "S", "k2", "raven"),
		ins(core.Path{3, 2}, core.Pos, "C", "c2", "purple-black"),
		{"delete u1 k2", func(st *Store) (bool, error) {
			return st.Delete(crashStmt(core.Path{1}, core.Pos, "S", "k2", "crow"))
		}},
		{"replace root k1", func(st *Store) (bool, error) {
			return st.Replace(
				crashStmt(nil, core.Pos, "S", "k1", "bald eagle"),
				core.Tuple{Rel: "S", Vals: []val.Value{val.Str("k1"), val.Str("fish eagle")}})
		}},
		user("u4"),
		ins(core.Path{4}, core.Neg, "S", "k1", "fish eagle"),
		{"vacuum", func(st *Store) (bool, error) {
			removed, err := st.Vacuum()
			return removed > 0, err
		}},
		ins(core.Path{1, 2}, core.Pos, "S", "k3", "osprey"),
		{"rebuild", func(st *Store) (bool, error) { return true, st.Rebuild() }},
		ins(core.Path{2}, core.Neg, "S", "k3", "osprey"),
		ins(nil, core.Pos, "C", "c3", "closing note"),
	}
}

// buildShadow replays the first n script ops on an in-memory store: the
// committed state the recovered store must match exactly.
func buildShadow(t *testing.T, n int) *Store {
	t.Helper()
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range crashScript()[:n] {
		if _, err := op.do(st); err != nil {
			t.Fatalf("shadow op %d (%s): %v", i, op.name, err)
		}
	}
	return st
}

// assertSameStore compares the observable state of two stores: explicit
// statements (the logical content), users, and full Stats (the physical
// representation size).
func assertSameStore(t *testing.T, label string, want, got *Store) {
	t.Helper()
	ws, err := want.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ws) != fmt.Sprint(gs) {
		t.Errorf("%s: statements mismatch:\nwant %v\ngot  %v", label, ws, gs)
	}
	if wu, gu := fmt.Sprint(want.Users()), fmt.Sprint(got.Users()); wu != gu {
		t.Errorf("%s: users mismatch: want %s got %s", label, wu, gu)
	}
	wst, gst := want.Stats(), got.Stats()
	if wst.String() != gst.String() {
		t.Errorf("%s: stats mismatch:\nwant %sgot  %s", label, wst, gst)
	}
}

// runUntilTorn opens a durable store whose WAL sink dies after limit bytes,
// then applies the script until an op fails. It returns the number of
// committed (acknowledged) ops; -1 when even the WAL header did not fit.
func runUntilTorn(t *testing.T, dir string, limit int64) int {
	t.Helper()
	wrapWALSink = func(s wal.Sink) wal.Sink { return &wal.LimitSink{W: s, Limit: limit} }
	defer func() { wrapWALSink = nil }()

	st, err := OpenAt(dir, crashRels())
	if err != nil {
		return -1
	}
	defer st.Close()
	committed := 0
	script := crashScript()
	for i, op := range script {
		if _, err := op.do(st); err != nil {
			// The torn write poisons the store: no further mutation may be
			// acknowledged as a state change, or recovery would silently
			// lose it. (Logical no-ops journal nothing and may succeed.)
			for _, later := range script[i+1:] {
				if changed, lerr := later.do(st); lerr == nil && changed {
					t.Fatalf("limit %d: op %q changed state after a WAL failure", limit, later.name)
				}
			}
			return committed
		}
		committed++
	}
	return committed
}

// TestCrashInjectionSweep is the crash-injection harness: for byte budgets
// covering the whole WAL it kills the log mid-append, reopens the
// directory, and asserts the recovered state equals the committed prefix.
func TestCrashInjectionSweep(t *testing.T) {
	// A clean run measures the full WAL size (and proves the script runs).
	cleanDir := t.TempDir()
	full := runUntilTorn(t, cleanDir, 1<<30)
	if full != len(crashScript()) {
		t.Fatalf("clean run committed %d/%d ops", full, len(crashScript()))
	}
	walSize, err := os.Stat(filepath.Join(cleanDir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}

	shadows := map[int]*Store{}
	for limit := int64(0); limit <= walSize.Size(); limit += 7 {
		dir := t.TempDir()
		committed := runUntilTorn(t, dir, limit)

		re, err := OpenAt(dir, crashRels())
		if err != nil {
			t.Fatalf("limit %d: reopen after crash: %v", limit, err)
		}
		wantN := committed
		if wantN < 0 {
			wantN = 0 // the header never made it: an empty database
		}
		shadow, ok := shadows[wantN]
		if !ok {
			shadow = buildShadow(t, wantN)
			shadows[wantN] = shadow
		}
		assertSameStore(t, fmt.Sprintf("limit %d (%d ops committed)", limit, wantN), shadow, re)

		// The recovered store accepts new writes (it has a clean WAL tail).
		if _, err := re.AddUser("postcrash"); err != nil {
			t.Fatalf("limit %d: mutation after recovery: %v", limit, err)
		}
		re.Close()
	}
}

// TestConflictingInsertReplays: a logged operation that *failed* its
// consistency check is replayed and fails identically, leaving no trace.
func TestConflictingInsertReplays(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddUser("u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k1", "crow")); err != nil {
		t.Fatal(err)
	}
	// Γ2 violation: the same tuple as an explicit negative.
	if _, err := st.Insert(crashStmt(core.Path{1}, core.Neg, "S", "k1", "crow")); err == nil {
		t.Fatal("conflicting insert should fail")
	}
	// Duplicate user: validated before logging, not logged at all.
	if _, err := st.AddUser("u1"); err == nil {
		t.Fatal("duplicate user should fail")
	}
	if _, err := st.Insert(crashStmt(nil, core.Pos, "S", "k2", "raven")); err != nil {
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
	shadow.Insert(crashStmt(core.Path{1}, core.Pos, "S", "k1", "crow"))
	shadow.Insert(crashStmt(nil, core.Pos, "S", "k2", "raven"))
	assertSameStore(t, "conflict replay", shadow, re)
}

// TestRecoveryTruncatesCorruptTail: garbage appended to a clean WAL (torn
// frame header, torn payload, checksum-failing record) is discarded and the
// file truncated back to its clean prefix.
func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	base := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		st, err := OpenAt(dir, crashRels())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range crashScript()[:6] {
			if _, err := op.do(st); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		fi, err := os.Stat(filepath.Join(dir, WALFileName))
		if err != nil {
			t.Fatal(err)
		}
		return dir, fi.Size()
	}

	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"torn frame header", func(d []byte) []byte { return append(d, 0x42, 0x00) }},
		{"torn payload", func(d []byte) []byte {
			// A plausible frame header claiming 100 payload bytes, then 5.
			frame := []byte{100, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}
			return append(d, frame...)
		}},
		{"checksum mismatch", func(d []byte) []byte {
			frame := wal.AppendRecord(nil, wal.AddUser("ghost").Encode(nil))
			frame[5] ^= 0xff // corrupt the CRC
			return append(d, frame...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, cleanLen := base(t)
			path := filepath.Join(dir, WALFileName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenAt(dir, crashRels())
			if err != nil {
				t.Fatalf("reopen with corrupt tail: %v", err)
			}
			defer re.Close()
			assertSameStore(t, tc.name, buildShadow(t, 6), re)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != cleanLen {
				t.Errorf("WAL not truncated to clean prefix: %d bytes, want %d", fi.Size(), cleanLen)
			}
		})
	}
}

// TestCorruptSnapshotRejected: unlike a torn WAL tail (expected after a
// crash), a snapshot failing its checksum is external corruption and must
// fail the open loudly.
func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range crashScript()[:5] {
		if _, err := op.do(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, SnapshotFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dir, crashRels()); err == nil {
		t.Fatal("OpenAt should reject a checksum-failing snapshot")
	}
}

// TestSnapshotCoversWALPrefix simulates a crash between a checkpoint's two
// steps: the snapshot landed (recording the WAL epoch and the K records it
// covers) but the WAL was never truncated. Recovery must skip exactly those
// K records and replay only the tail — double-applying a non-idempotent op
// (raw SQL) would be visible immediately.
func TestSnapshotCoversWALPrefix(t *testing.T) {
	const prefix = 7
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	script := crashScript()
	for _, op := range script[:prefix] {
		if _, err := op.do(st); err != nil {
			t.Fatal(err)
		}
	}
	// A raw-SQL write: replaying it twice would duplicate the row.
	if _, err := st.SQL(`insert into Users values (77, 'rawsql')`); err != nil {
		t.Fatal(err)
	}
	// The snapshot a checkpoint would have written at this point: it covers
	// the prefix ops plus the SQL record, all under the current epoch.
	m := st.SnapshotModel()
	m.WalEpoch = st.wal.Epoch()
	m.WalApplied = uint64(prefix + 1)
	for _, op := range script[prefix:] {
		if _, err := op.do(st); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if err := snapshot.WriteFile(filepath.Join(dir, SnapshotFileName), m); err != nil {
		t.Fatal(err)
	}

	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	shadow := buildShadow(t, len(script))
	if _, err := shadow.SQL(`insert into Users values (77, 'rawsql')`); err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, "prefix-covering snapshot", shadow, re)
	res, err := re.SQL(`select U.name from Users U where U.uid = 77`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("raw-SQL row applied %d times across snapshot+WAL recovery, want exactly once", len(res.Rows))
	}
}

// TestCheckpointResetCrashEpochCollision simulates a checkpoint whose WAL
// reset crashed after truncation but before the new epoch header became
// durable: the snapshot records (epoch 0, applied k) and the WAL file is
// left shorter than a header. The recreated log must start ABOVE the
// snapshot's epoch — at the old epoch, recovery would treat the first k
// post-crash records as already covered and silently drop them.
func TestCheckpointResetCrashEpochCollision(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	script := crashScript()
	for _, op := range script[:6] {
		if _, err := op.do(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate the crash window: the truncated WAL never got its new header.
	if err := os.Truncate(filepath.Join(dir, WALFileName), 0); err != nil {
		t.Fatal(err)
	}

	// Session 2: append new committed operations.
	st, err = OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range script[6:] {
		if _, err := op.do(st); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Session 3: every operation of both sessions must survive.
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameStore(t, "post-reset-crash recovery", buildShadow(t, len(script)), re)
}
