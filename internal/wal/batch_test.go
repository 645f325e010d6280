package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
)

func batchStmt(key string) core.Statement {
	return core.Statement{Sign: core.Pos, Tuple: core.Tuple{
		Rel: "S", Vals: []val.Value{val.Str(key), val.Str("x")},
	}}
}

// TestAppendBatchSingleSync: a batch of N ops lands as one marker + N
// framed records through exactly one Write and one Sync, and decodes back.
func TestAppendBatchSingleSync(t *testing.T) {
	sink := &MemSink{}
	log, err := NewLog(sink, 3)
	if err != nil {
		t.Fatal(err)
	}
	headerSyncs := log.Syncs()
	ops := []Op{Insert(batchStmt("k1")), Delete(batchStmt("k2")), Insert(batchStmt("k3"))}
	if err := log.AppendBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := log.Syncs() - headerSyncs; got != 1 {
		t.Errorf("batch issued %d syncs, want 1", got)
	}
	if sink.Synced != len(sink.Buf) {
		t.Errorf("sink not fully synced: %d of %d bytes", sink.Synced, len(sink.Buf))
	}

	payloads, epoch, cleanLen, err := Recover(sink.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 || cleanLen != int64(len(sink.Buf)) {
		t.Fatalf("epoch=%d cleanLen=%d (buf %d)", epoch, cleanLen, len(sink.Buf))
	}
	if len(payloads) != len(ops)+1 {
		t.Fatalf("recovered %d records, want %d", len(payloads), len(ops)+1)
	}
	marker, err := DecodeOp(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if marker.Kind != KindBatchBegin || marker.Count != uint64(len(ops)) {
		t.Fatalf("marker = %s", marker)
	}
	for i, p := range payloads[1:] {
		op, err := DecodeOp(p)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if op.Kind != ops[i].Kind || op.Stmt.Tuple.Key().AsString() != ops[i].Stmt.Tuple.Key().AsString() {
			t.Errorf("member %d = %s, want %s", i, op, ops[i])
		}
	}
}

// TestAppendBatchRejectsBadInput: empty batches are a no-op, nested markers
// and oversized members are refused before any byte reaches the sink.
func TestAppendBatchRejectsBadInput(t *testing.T) {
	sink := &MemSink{}
	log, err := NewLog(sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(sink.Buf)
	if err := log.AppendBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := log.AppendBatch([]Op{Insert(batchStmt("k")), BatchBegin(1)}); err == nil {
		t.Error("nested batch marker accepted")
	}
	huge := core.Statement{Sign: core.Pos, Tuple: core.Tuple{
		Rel: "S", Vals: []val.Value{val.Str(string(make([]byte, maxRecordLen)))},
	}}
	err = log.AppendBatch([]Op{Insert(batchStmt("k")), Insert(huge)})
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized member: %v", err)
	}
	if len(sink.Buf) != hdr {
		t.Errorf("rejected batches wrote %d bytes", len(sink.Buf)-hdr)
	}
	// The log is still clean: later appends work.
	if err := log.Append(Insert(batchStmt("after"))); err != nil {
		t.Errorf("append after rejected batch: %v", err)
	}
}

// TestRecoveryTruncatesIncompleteBatch: a batch group whose members were
// cut off by a torn write is discarded whole — including its intact
// leading members — and the file is truncated back to the marker, since
// the group's single sync never completed and nothing in it was
// acknowledged.
func TestRecoveryTruncatesIncompleteBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.bdb")
	_, recLog := openAttached(t, path)
	if err := recLog.Append(AddUser("solo")); err != nil {
		t.Fatal(err)
	}
	if err := recLog.Close(); err != nil {
		t.Fatal(err)
	}
	cleanSize, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-craft the crash: a marker claiming 3 members followed by only 2
	// intact members (the third never reached the disk).
	var group []byte
	group = AppendRecord(group, BatchBegin(3).Encode(nil))
	group = AppendRecord(group, Insert(batchStmt("b1")).Encode(nil))
	group = AppendRecord(group, Insert(batchStmt("b2")).Encode(nil))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(group); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, reLog := openAttached(t, path)
	defer reLog.Close()
	if len(re.Ops) != 1 || re.Ops[0].Kind != KindAddUser {
		t.Fatalf("recovered ops = %v, want the solo AddUser only", re.Ops)
	}
	if re.Truncated != int64(len(group)) {
		t.Errorf("truncated %d bytes, want %d", re.Truncated, len(group))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != cleanSize.Size() {
		t.Errorf("file is %d bytes, want truncated back to %d", fi.Size(), cleanSize.Size())
	}
	// A complete group after reopen replays on the next recovery.
	if err := reLog.AppendBatch([]Op{Insert(batchStmt("c1")), Insert(batchStmt("c2"))}); err != nil {
		t.Fatal(err)
	}
	reLog.Close()
	re2, re2Log := openAttached(t, path)
	defer re2Log.Close()
	if len(re2.Ops) != 4 { // AddUser + marker + 2 members
		t.Fatalf("recovered %d ops after complete batch, want 4 (%v)", len(re2.Ops), re2.Ops)
	}
}

// TestCloseClosesSinkOnSyncFailure: Close must release the descriptor even
// when the final sync fails, and report both errors.
func TestCloseClosesSinkOnSyncFailure(t *testing.T) {
	errSync := errors.New("sync exploded")
	errClose := errors.New("close exploded")
	sink := &failingSink{}
	log, err := NewLog(sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink.syncErr = errSync
	sink.closeErr = errClose
	err = log.Close()
	if !sink.closed {
		t.Fatal("Close left the sink open after a failing Sync")
	}
	if !errors.Is(err, errSync) || !errors.Is(err, errClose) {
		t.Errorf("Close error %v should join the sync and close failures", err)
	}

	// The happy path still closes and reports nothing.
	ok := &failingSink{}
	log2, err := NewLog(ok, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil || !ok.closed {
		t.Errorf("clean Close: err=%v closed=%v", err, ok.closed)
	}
}

// failingSink is a closable MemSink with injectable Sync/Close failures.
type failingSink struct {
	MemSink
	syncErr  error
	closeErr error
	closed   bool
}

func (s *failingSink) Sync() error {
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.MemSink.Sync()
}

func (s *failingSink) Close() error {
	s.closed = true
	return s.closeErr
}

// TestTornTailNotResurrectedAcrossCrashes is the satellite regression
// sequence: torn tail → reopen (recovery truncates and — the fix — fsyncs
// the truncation) → append → tear again → reopen. Before the fix the first
// truncation could be lost on the second crash, leaving the first crash's
// torn bytes beyond the new records where a later recovery would read them
// as if they sat under the clean prefix. The in-process test cannot fail
// an fsync the kernel already absorbed, so it pins the observable
// contract: after each recovery the on-disk file holds exactly the clean
// prefix (no stale sentinel bytes survive anywhere), and the recovered op
// sequence is exactly the acknowledged one.
func TestTornTailNotResurrectedAcrossCrashes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.bdb")
	_, recLog := openAttached(t, path)
	if err := recLog.Append(AddUser("committed")); err != nil {
		t.Fatal(err)
	}
	recLog.Close()

	// Crash 1: a torn record full of sentinel bytes. The payload would be a
	// valid frame if recovery ever trusted it.
	sentinel := bytes.Repeat([]byte{0xCA}, 64)
	torn := AppendRecord(nil, sentinel)[:40] // cut mid-payload
	appendBytes(t, path, torn)

	re, reLog := openAttached(t, path)
	if len(re.Ops) != 1 || re.Truncated != int64(len(torn)) {
		t.Fatalf("first recovery: ops=%v truncated=%d", re.Ops, re.Truncated)
	}
	if err := reLog.Append(AddUser("after-crash-1")); err != nil {
		t.Fatal(err)
	}
	reLog.Close()
	if data, _ := os.ReadFile(path); bytes.Contains(data, sentinel[:8]) {
		t.Fatal("torn sentinel bytes survived the first recovery's truncation")
	}

	// Crash 2: tear the tail again, mid-record.
	torn2 := AppendRecord(nil, Insert(batchStmt("never-acked")).Encode(nil))
	appendBytes(t, path, torn2[:len(torn2)-3])

	re2, re2Log := openAttached(t, path)
	defer re2Log.Close()
	var names []string
	for _, op := range re2.Ops {
		names = append(names, op.Name)
	}
	if len(re2.Ops) != 2 || names[0] != "committed" || names[1] != "after-crash-1" {
		t.Fatalf("second recovery ops = %v, want the two acknowledged AddUsers", names)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, sentinel[:8]) {
		t.Fatal("crash-1 torn bytes resurrected beneath later appends")
	}
	_, _, cleanLen, err := Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	if cleanLen != int64(len(data)) {
		t.Errorf("file holds %d bytes beyond its clean prefix after recovery", int64(len(data))-cleanLen)
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestAppendGroupsSingleSync: several independent groups land through one
// Write and one Sync, and the bytes are identical to consecutive
// AppendBatch calls — recovery needs no new cases.
func TestAppendGroupsSingleSync(t *testing.T) {
	groups := [][]Op{
		{Insert(batchStmt("a1")), Insert(batchStmt("a2"))},
		{Delete(batchStmt("b1"))},
		{Insert(batchStmt("c1")), Delete(batchStmt("c2")), Insert(batchStmt("c3"))},
	}

	one := &MemSink{}
	logOne, err := NewLog(one, 7)
	if err != nil {
		t.Fatal(err)
	}
	headerSyncs := logOne.Syncs()
	if err := logOne.AppendGroups(groups, nil); err != nil {
		t.Fatal(err)
	}
	if got := logOne.Syncs() - headerSyncs; got != 1 {
		t.Errorf("AppendGroups issued %d syncs, want 1", got)
	}
	if one.Synced != len(one.Buf) {
		t.Errorf("sink not fully synced: %d of %d bytes", one.Synced, len(one.Buf))
	}

	many := &MemSink{}
	logMany, err := NewLog(many, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if err := logMany.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(one.Buf, many.Buf) {
		t.Error("AppendGroups bytes differ from consecutive AppendBatch calls")
	}

	payloads, _, cleanLen, err := Recover(one.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if cleanLen != int64(len(one.Buf)) {
		t.Fatalf("cleanLen = %d, want %d", cleanLen, len(one.Buf))
	}
	wantRecords := 0
	for _, g := range groups {
		wantRecords += 1 + len(g)
	}
	if len(payloads) != wantRecords {
		t.Fatalf("recovered %d records, want %d", len(payloads), wantRecords)
	}
}

// TestAppendGroupsRejectsBadInput: a no-group call is a no-op; empty
// groups, nested markers, and oversized members are refused before any byte
// reaches the sink, leaving the log clean.
func TestAppendGroupsRejectsBadInput(t *testing.T) {
	sink := &MemSink{}
	log, err := NewLog(sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(sink.Buf)
	if err := log.AppendGroups(nil, nil); err != nil {
		t.Errorf("no groups: %v", err)
	}
	if err := log.AppendGroups([][]Op{{Insert(batchStmt("k"))}, {}}, nil); err == nil {
		t.Error("empty group accepted")
	}
	if err := log.AppendGroups([][]Op{{Insert(batchStmt("k"))}, {BatchBegin(1)}}, nil); err == nil {
		t.Error("nested batch marker accepted")
	}
	huge := core.Statement{Sign: core.Pos, Tuple: core.Tuple{
		Rel: "S", Vals: []val.Value{val.Str(string(make([]byte, maxRecordLen)))},
	}}
	err = log.AppendGroups([][]Op{{Insert(batchStmt("k"))}, {Insert(huge)}}, nil)
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized member: %v", err)
	}
	if len(sink.Buf) != hdr {
		t.Errorf("rejected group writes left %d bytes", len(sink.Buf)-hdr)
	}
	if err := log.Append(Insert(batchStmt("after"))); err != nil {
		t.Errorf("append after rejected groups: %v", err)
	}
}

// TestAppendGroupsTornTrailingGroup: when a combined multi-group write is
// torn mid-way, the complete leading groups survive recovery (durable but
// unacknowledged, like any pre-sync crash survivor) and only the cut-off
// trailing group is discarded and truncated away.
func TestAppendGroupsTornTrailingGroup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.bdb")
	_, recLog := openAttached(t, path)
	recLog.Close()

	// The bytes AppendGroups would emit for two groups, torn three bytes
	// into the second group's last member.
	var buf []byte
	buf = AppendRecord(buf, BatchBegin(2).Encode(nil))
	buf = AppendRecord(buf, Insert(batchStmt("g1a")).Encode(nil))
	buf = AppendRecord(buf, Insert(batchStmt("g1b")).Encode(nil))
	g1len := len(buf)
	buf = AppendRecord(buf, BatchBegin(2).Encode(nil))
	buf = AppendRecord(buf, Insert(batchStmt("g2a")).Encode(nil))
	full := AppendRecord(buf, Insert(batchStmt("g2b")).Encode(nil))
	appendBytes(t, path, full[:len(full)-3])

	re, reLog := openAttached(t, path)
	defer reLog.Close()
	if len(re.Ops) != 3 || re.Ops[0].Kind != KindBatchBegin || re.Ops[0].Count != 2 {
		t.Fatalf("recovered ops = %v, want group 1's marker + 2 members", re.Ops)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(HeaderLen + g1len); fi.Size() != want {
		t.Errorf("file is %d bytes, want truncated to %d (header + complete group)", fi.Size(), want)
	}
}
