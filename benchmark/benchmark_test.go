package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestPickTail pins the "at least ten samples beyond" rule: the reported
// tail is the highest of p99/p95/p90 that still has minBeyond samples above
// it, and there is none below 100 samples.
func TestPickTail(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[int]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%d = %v, want %v", p, got, want)
		}
	}
}

// TestQuartileSpread checks the spread against values computed with
// Python's statistics.quantiles(xs, n=4), which is what the driver uses.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 9.5}
	// quantiles -> [9.875, 11.25, 12.625]; median 11.25.
	if got, want := quartileSpread(xs), (12.625-9.875)/11.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestSelfTime: a span's self time is its duration minus the interval its
// children cover — overlapping children counted once, children clipped to
// the parent, grandchildren not subtracted twice.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "bsql.parse", Parent: 0, Start: 10, End: 30},
		{Name: "query.run", Parent: 0, Start: 25, End: 60},   // overlaps the first child
		{Name: "engine.scan", Parent: 2, Start: 30, End: 50}, // grandchild
		{Name: "query.late", Parent: 0, Start: 90, End: 120}, // sticks out of the parent
		{Name: "probe.wal_append", Parent: -1, Start: 100, End: 140},
	}
	want := []int64{100 - (60 - 10) - (100 - 90), 20, 35 - 20, 20, 30, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byLayer, total := layerSelf(spans)
	if total != 140 {
		t.Errorf("root total = %d, want 140", total)
	}
	if byLayer["query"] != 15+30 || byLayer["engine"] != 20 {
		t.Errorf("layer self times = %v", byLayer)
	}
}

// TestFingerprintStable: two generations with the same seed hash alike,
// and another seed hashes differently, for every workload.
func TestFingerprintStable(t *testing.T) {
	for _, w := range workloads {
		rc := &runCtx{p: smokeParams, seed: 5, smoke: true}
		a, err := inputFingerprint(rc, w.name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inputFingerprint(rc, w.name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same seed, different input: %s vs %s", w.name, a, b)
		}
		rc.seed = 6
		c, err := inputFingerprint(rc, w.name)
		if err != nil {
			t.Fatal(err)
		}
		if c == a {
			t.Errorf("%s: seeds 5 and 6 generate the same input", w.name)
		}
	}
}

// TestPinnedInputs regenerates the full-size input of the default seed and
// compares it with the pinned fingerprints: an edit to internal/gen or to
// the op generators that changes the traffic must show up here.
func TestPinnedInputs(t *testing.T) {
	rc := &runCtx{p: fullParams, seed: 1}
	for _, w := range workloads {
		got, err := inputFingerprint(rc, w.name)
		if err != nil {
			t.Fatal(err)
		}
		if got != pinned[w.name] {
			t.Errorf("%s: input_sha256 %s, pinned %q", w.name, got, pinned[w.name])
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size with
// all checks on: no op may fail, every declared metric must be reported,
// and the whole set must stay quick enough to run under `go test`.
func TestSmoke(t *testing.T) {
	start := time.Now()
	rc := &runCtx{p: smokeParams, seed: 1, outDir: t.TempDir(), smoke: true}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(rc, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			for _, d := range declaredFor(traced) {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", w.name, traced, d.name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(rc.outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				// The workloads separate the layers: only the routed one
				// may report router work.
				if r := res.Metrics["router.fanout"].Value; (r != 0) != (w.name == "sharded-scatter") {
					t.Errorf("%s: router.fanout = %v", w.name, r)
				}
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("smoke set took %s, want under 5s", d)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the declared lists in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), declared %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, declared %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := doc.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, declared %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := doc.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, declared %+v", i, g, d)
		}
	}
}
