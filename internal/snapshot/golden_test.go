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
