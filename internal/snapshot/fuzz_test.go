package snapshot

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"beliefdb/internal/wal"
)

// FuzzSnapshotDecode feeds Decode arbitrary images — it parses bytes read
// from disk and bytes a primary sends a replica. The harness recomputes the
// trailing CRC, so mutations get past the checksum into the body parser.
// Decode must never panic, and an accepted version-3 image must re-encode
// byte-identically (a model has one encoding).
func FuzzSnapshotDecode(f *testing.F) {
	for _, file := range []string{"testdata/v1.snap", "testdata/v2.snap", "testdata/v3.snap"} {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(Magic)+1+4 {
			body := data[len(Magic) : len(data)-4]
			data = binary.LittleEndian.AppendUint32(append([]byte(nil), data[:len(data)-4]...), wal.Checksum(body))
		}
		m, err := Decode(data)
		if err != nil || data[len(Magic)] != Version {
			return
		}
		if img := m.Encode(); !bytes.Equal(img, data) {
			t.Fatalf("accepted image re-encodes differently:\n in  %x\n out %x", data, img)
		}
	})
}
