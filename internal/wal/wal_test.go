package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
)

// sampleOps covers every op kind and every value kind.
func sampleOps() []Op {
	return []Op{
		AddUser("Alice"),
		AddUser("Bøb — quoted 'name'"),
		Insert(core.Statement{Sign: core.Pos, Tuple: core.Tuple{
			Rel: "S", Vals: []val.Value{val.Str("k1"), val.Str("bald eagle")},
		}}),
		Insert(core.Statement{Path: core.Path{2, 1}, Sign: core.Neg, Tuple: core.Tuple{
			Rel:  "T",
			Vals: []val.Value{val.Int(-42), val.Float(3.5), val.Bool(true), val.Null(), val.Str("")},
		}}),
		Delete(core.Statement{Path: core.Path{1}, Sign: core.Pos, Tuple: core.Tuple{
			Rel: "S", Vals: []val.Value{val.Str("k1"), val.Str("bald eagle")},
		}}),
		Replace(
			core.Statement{Path: core.Path{3}, Sign: core.Pos, Tuple: core.Tuple{
				Rel: "S", Vals: []val.Value{val.Str("k2"), val.Str("crow")},
			}},
			[]val.Value{val.Str("k2"), val.Str("raven")},
		),
		Rebuild(),
		Vacuum(),
		SQL("insert into Users values (9, 'x')"),
		Schema(SchemaDef{Lazy: true, Rels: []SchemaRel{
			{Name: "S", Cols: []SchemaCol{{Name: "sid", Kind: 3}, {Name: "n", Kind: 1}}},
			{Name: "Empty"},
		}}),
		// The group-commit marker (an additive opcode: files without it
		// decode unchanged). Count=2 covers the two records that follow.
		BatchBegin(2),
		Insert(core.Statement{Sign: core.Pos, Tuple: core.Tuple{
			Rel: "S", Vals: []val.Value{val.Str("k3"), val.Str("osprey")},
		}}),
		Delete(core.Statement{Sign: core.Neg, Tuple: core.Tuple{
			Rel: "S", Vals: []val.Value{val.Str("k3"), val.Str("osprey")},
		}}),
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		payload := op.Encode(nil)
		got, err := DecodeOp(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", op, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(op) {
			t.Errorf("round trip changed op:\nwant %s\ngot  %s", op, got)
		}
	}
}

func TestDecodeOpRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"unknown opcode":  {0xEE},
		"truncated name":  append([]byte{byte(KindAddUser)}, 200),
		"trailing bytes":  append(AddUser("x").Encode(nil), 0x01),
		"truncated stmt":  Insert(core.Statement{Tuple: core.Tuple{Rel: "S"}}).Encode(nil)[:3],
		"bad sign":        {byte(KindInsert), 0, '?', 1, 'S', 0},
		"huge path count": {byte(KindInsert), 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, payload := range cases {
		if _, err := DecodeOp(payload); err == nil {
			t.Errorf("%s: decode succeeded on %v", name, payload)
		}
	}
}

func TestRecoverStopsAtTornAndCorruptRecords(t *testing.T) {
	ops := sampleOps()
	img := AppendHeader(nil, 5)
	var bounds []int // clean prefix length after each record
	for _, op := range ops {
		img = AppendRecord(img, op.Encode(nil))
		bounds = append(bounds, len(img))
	}

	t.Run("clean", func(t *testing.T) {
		payloads, epoch, cleanLen, err := Recover(img)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 5 {
			t.Errorf("epoch = %d, want 5", epoch)
		}
		if len(payloads) != len(ops) || cleanLen != int64(len(img)) {
			t.Errorf("recovered %d records, cleanLen %d; want %d, %d",
				len(payloads), cleanLen, len(ops), len(img))
		}
	})

	t.Run("truncation sweep", func(t *testing.T) {
		for cut := HeaderLen; cut <= len(img); cut++ {
			payloads, _, cleanLen, err := Recover(img[:cut])
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			wantN := 0
			wantLen := HeaderLen
			for i, b := range bounds {
				if b <= cut {
					wantN = i + 1
					wantLen = b
				}
			}
			if len(payloads) != wantN || cleanLen != int64(wantLen) {
				t.Errorf("cut %d: recovered %d records to %d, want %d to %d",
					cut, len(payloads), cleanLen, wantN, wantLen)
			}
		}
	})

	t.Run("mid-file corruption ends the clean prefix", func(t *testing.T) {
		// Flip one payload byte of the third record.
		corrupt := append([]byte(nil), img...)
		corrupt[bounds[1]+9] ^= 0xff
		payloads, _, cleanLen, err := Recover(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if len(payloads) != 2 || cleanLen != int64(bounds[1]) {
			t.Errorf("recovered %d records to %d, want 2 to %d", len(payloads), cleanLen, bounds[1])
		}
	})

	t.Run("absurd length field is torn, not fatal", func(t *testing.T) {
		bad := append(append([]byte(nil), img[:bounds[0]]...),
			0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3)
		payloads, _, cleanLen, err := Recover(bad)
		if err != nil {
			t.Fatal(err)
		}
		if len(payloads) != 1 || cleanLen != int64(bounds[0]) {
			t.Errorf("recovered %d records to %d, want 1 to %d", len(payloads), cleanLen, bounds[0])
		}
	})
}

func TestRecoverRejectsForeignAndFutureFiles(t *testing.T) {
	if _, _, _, err := Recover([]byte("definitely not a wal file....")); err == nil {
		t.Error("foreign magic accepted")
	}
	img := AppendHeader(nil, 0)
	img[len(Magic)] = Version + 1
	if _, _, _, err := Recover(img); err == nil {
		t.Error("future version accepted")
	}
}

func TestLogAppendAndReset(t *testing.T) {
	sink := &MemSink{}
	log, err := NewLog(sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range sampleOps() {
		if err := log.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Synced != len(sink.Buf) {
		t.Errorf("append left %d unsynced bytes", len(sink.Buf)-sink.Synced)
	}
	payloads, epoch, _, err := Recover(sink.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 0 || len(payloads) != len(sampleOps()) {
		t.Fatalf("epoch %d, %d records", epoch, len(payloads))
	}

	if err := log.Reset(1); err != nil {
		t.Fatal(err)
	}
	if log.Epoch() != 1 {
		t.Errorf("epoch after reset = %d", log.Epoch())
	}
	payloads, epoch, _, err = Recover(sink.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || len(payloads) != 0 {
		t.Errorf("after reset: epoch %d, %d records", epoch, len(payloads))
	}
}

func TestLimitSinkTearsWrites(t *testing.T) {
	for limit := int64(0); limit < 48; limit++ {
		mem := &MemSink{}
		sink := &LimitSink{W: mem, Limit: limit}
		log, err := NewLog(sink, 0)
		if err != nil {
			if limit >= int64(HeaderLen) {
				t.Fatalf("limit %d: header write failed: %v", limit, err)
			}
			continue
		}
		var appendErr error
		appended := 0
		for i := 0; i < 4; i++ {
			if appendErr = log.Append(AddUser(fmt.Sprintf("user%d", i))); appendErr != nil {
				break
			}
			appended++
		}
		if int64(len(mem.Buf)) > limit {
			t.Fatalf("limit %d: sink accepted %d bytes", limit, len(mem.Buf))
		}
		if appendErr == nil {
			continue // everything fit
		}
		if !errors.Is(appendErr, ErrTornWrite) {
			t.Fatalf("limit %d: unexpected error %v", limit, appendErr)
		}
		// Whatever reached the sink must recover to exactly the appended ops.
		payloads, _, _, err := Recover(mem.Buf)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if len(payloads) != appended {
			t.Errorf("limit %d: recovered %d records, want %d", limit, len(payloads), appended)
		}
		// And the sink stays dead.
		if err := log.Append(AddUser("late")); err == nil {
			t.Errorf("limit %d: append succeeded after torn write", limit)
		}
	}
}

func TestOpenFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.bdb")

	rec, recLog := openAttached(t, path)
	if len(rec.Ops) != 0 || rec.Epoch != 0 {
		t.Fatalf("fresh file: %d ops, epoch %d", len(rec.Ops), rec.Epoch)
	}
	ops := sampleOps()
	for _, op := range ops {
		if err := recLog.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := recLog.Close(); err != nil {
		t.Fatal(err)
	}

	// Append garbage (a torn tail) and reopen: the ops survive, the tail
	// is truncated off the file itself.
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte(nil), clean...), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, recLog = openAttached(t, path)
	if len(rec.Ops) != len(ops) || rec.Truncated != 3 {
		t.Fatalf("reopen: %d ops, %d truncated", len(rec.Ops), rec.Truncated)
	}
	for i, op := range rec.Ops {
		if fmt.Sprint(op) != fmt.Sprint(ops[i]) {
			t.Errorf("op %d: %s, want %s", i, op, ops[i])
		}
	}
	// Appending after recovery lands after the clean prefix.
	if err := recLog.Append(AddUser("after")); err != nil {
		t.Fatal(err)
	}
	recLog.Close()
	rec, recLog = openAttached(t, path)
	if len(rec.Ops) != len(ops)+1 {
		t.Fatalf("after append: %d ops", len(rec.Ops))
	}
	recLog.Close()

	// A checksummed record that does not decode is a format break: fail.
	img := AppendHeader(nil, 0)
	img = AppendRecord(img, []byte{0xEE, 1, 2}) // unknown opcode, valid CRC
	badPath := filepath.Join(t.TempDir(), "wal.bdb")
	if err := os.WriteFile(badPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(badPath, 0, nil); err == nil {
		t.Error("OpenFile accepted an undecodable checksummed record")
	}
}

func TestAppendRejectsOversizedRecordCleanly(t *testing.T) {
	sink := &MemSink{}
	log, err := NewLog(sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(AddUser("ok-before")); err != nil {
		t.Fatal(err)
	}
	huge := SQL(string(make([]byte, maxRecordLen+1)))
	if err := log.Append(huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: %v, want ErrRecordTooLarge", err)
	}
	// Nothing was written: the log stays clean and accepts later records.
	if err := log.Append(AddUser("ok-after")); err != nil {
		t.Fatal(err)
	}
	payloads, _, cleanLen, err := Recover(sink.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 || cleanLen != int64(len(sink.Buf)) {
		t.Errorf("recovered %d records to %d of %d bytes, want 2 clean records",
			len(payloads), cleanLen, len(sink.Buf))
	}
}

// openAttached opens the WAL at path with epoch 0 for a fresh file and
// attaches to it: the torn tail cut, a Log appending after the prefix.
func openAttached(t *testing.T, path string) (*Recovered, *Log) {
	t.Helper()
	rec, err := OpenFile(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := rec.Attach()
	if err != nil {
		t.Fatal(err)
	}
	return rec, log
}
