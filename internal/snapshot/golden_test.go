package snapshot

// Golden-file tests pinning the snapshot binary format. The committed
// fixtures make any encoding change fail loudly, forcing a format-version
// bump instead of silently corrupting existing snapshot files. Regenerate
// the current version's fixture with:
//
//	go test ./internal/snapshot -run TestGoldenSnapshot -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenSnap = "testdata/v3.snap"

func TestGoldenSnapshot(t *testing.T) {
	img := sampleModel().Encode()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenSnap), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnap, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenSnap)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}

	// Encoder stability.
	if !bytes.Equal(img, want) {
		t.Errorf("snapshot encoding changed: got %d bytes, fixture %d bytes.\n"+
			"If this is intentional, bump snapshot.Version and regenerate with -update.\ngot:     %x\nfixture: %x",
			len(img), len(want), img, want)
	}

	// Decoder stability: the fixture decodes to the same model forever.
	got, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleModel()) {
		t.Errorf("fixture decodes to a different model:\ngot %+v", got)
	}

	// A future format version is rejected, not half-read. The version byte
	// sits under the checksum, so recompute it for the tampered image.
	future := append([]byte(nil), want...)
	future[len(Magic)]++
	if _, err := Decode(future); err == nil {
		t.Error("bumped version byte with stale checksum was accepted")
	}
}

// TestGoldenSnapshotV1 and TestGoldenSnapshotV2 pin backward
// compatibility with the images that recorded every row of the
// representation: version 1 (no index section) and version 2 (with one).
// Both decode to sampleModel's explicit statements — the R_v rows with
// e = 'y', their paths and tuples resolved — and drop the rest, including
// the raw-SQL-only user row 77 and world 9. The fixtures are frozen: no code
// in this tree writes them any more, and they must never be regenerated.
func TestGoldenSnapshotV1(t *testing.T) {
	want := sampleModel()
	want.Indexes = nil
	checkRowImage(t, "testdata/v1.snap", want)
}

func TestGoldenSnapshotV2(t *testing.T) {
	checkRowImage(t, "testdata/v2.snap", sampleModel())
}

func checkRowImage(t *testing.T, file string, want *Model) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s decodes to a different model:\ngot  %+v\nwant %+v", file, got, want)
	}
}
