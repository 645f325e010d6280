package snapshot

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
)

// sampleModel exercises every section and every column kind; the frozen
// version-1 and version-2 fixtures hold the same database as row images.
func sampleModel() *Model {
	k1 := []val.Value{val.Str("k1"), val.Int(-7), val.Float(2.25), val.Bool(true)}
	return &Model{
		WalEpoch:   2,
		WalApplied: 11,
		NextUID:    4,
		Users:      []User{{UID: 1, Name: "Alice"}, {UID: 2, Name: "Bøb"}},
		Rels: []Relation{
			{Name: "S", Columns: []Column{
				{Name: "sid", Kind: val.KindString},
				{Name: "n", Kind: val.KindInt},
				{Name: "x", Kind: val.KindFloat},
				{Name: "ok", Kind: val.KindBool},
			}},
			{Name: "Empty", Columns: []Column{{Name: "k", Kind: val.KindString}}},
		},
		Statements: []core.Statement{
			{Sign: core.Pos, Tuple: core.Tuple{Rel: "S", Vals: k1}},
			{Path: core.Path{1}, Sign: core.Neg, Tuple: core.Tuple{Rel: "S", Vals: k1}},
		},
		Indexes: []IndexDef{
			{Table: "S_star", Name: "S_star_key", Cols: []string{"sid"}},
			{Table: "S_star", Name: "S_star_sid_n", Cols: []string{"sid", "n"}, Ordered: true},
			{Table: "Users", Name: "Users_ix0", Cols: []string{"name"}},
		},
	}
}

func TestModelRoundTrip(t *testing.T) {
	m := sampleModel()
	data := m.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip changed the model:\nwant %+v\ngot  %+v", m, got)
	}
}

// TestDecodeRefusesNonCanonical: a version-3 model has one encoding. An
// image spelling a field differently — here NextUID as a two-byte varint —
// is refused even with a valid checksum.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	m := sampleModel()
	m.NextUID = 0
	img := m.Encode()
	at := len(Magic) + 1 + 8 + 1 // version, WalEpoch, WalApplied (11: one byte)
	if img[at] != 0 {
		t.Fatalf("NextUID byte = %#x, want 0", img[at])
	}
	padded := append(append(append([]byte(nil), img[:at]...), 0x80, 0x00), img[at+1:len(img)-4]...)
	padded = binary.LittleEndian.AppendUint32(padded, wal.Checksum(padded[len(Magic):]))
	if _, err := Decode(padded); err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Errorf("Decode(padded varint) = %v, want a non-canonical refusal", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := sampleModel().Encode(), sampleModel().Encode()
	if !reflect.DeepEqual(a, b) {
		t.Error("two encodings of the same model differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	clean := sampleModel().Encode()

	t.Run("every flipped byte is caught", func(t *testing.T) {
		// The checksum covers version + body; the magic is checked
		// directly. Flip each byte and require an error — this is the
		// whole point of checksumming the snapshot.
		for i := range clean {
			bad := append([]byte(nil), clean...)
			bad[i] ^= 0xff
			if _, err := Decode(bad); err == nil {
				t.Fatalf("flipped byte %d went undetected", i)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{0, 4, len(Magic), len(clean) / 2, len(clean) - 1} {
			if _, err := Decode(clean[:cut]); err == nil {
				t.Errorf("truncation to %d bytes went undetected", cut)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), clean...), 0)); err == nil {
			t.Error("trailing byte went undetected")
		}
	})
}

func TestWriteFileReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.bdb")
	if _, err := ReadFile(path); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v, want IsNotExist", err)
	}
	m := sampleModel()
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("file round trip changed the model")
	}

	// Overwrite is atomic: the temp file is gone afterwards.
	m.NextUID = 99
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after overwrite, want just the snapshot", len(entries))
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextUID != 99 {
		t.Errorf("overwritten snapshot has NextUID=%d", got.NextUID)
	}
}
