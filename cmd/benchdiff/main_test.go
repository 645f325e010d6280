package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is a cut-down BENCHMARK.json: two workloads, a timing, a
// higher-is-better rate and a tightly bounded count.
const benchSpec = `{
  "workloads": [{"name": "reads"}, {"name": "writes"}],
  "end_to_end": [
    {"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "allocs_per_op", "unit": "count", "better": "lower", "bound": 0.05}
  ]
}`

// run1 is one workload's untraced result in a fixture document.
type run1 struct {
	p50, ops, allocs float64
	failed           int
	input            string
}

// writeDocs writes one benchmark document per element (seeds 1..n, both
// workloads with the same numbers unless writes is given) and returns the
// comma-separated paths.
func writeDocs(t *testing.T, dir, side string, reads []run1, writes []run1) string {
	t.Helper()
	if writes == nil {
		writes = reads
	}
	var paths []string
	for i := range reads {
		doc := map[string]interface{}{}
		for name, r := range map[string]run1{"reads": reads[i], "writes": writes[i]} {
			input := r.input
			if input == "" {
				input = fmt.Sprintf("sha-%s-%d", name, i+1)
			}
			doc[name] = map[string]interface{}{"untraced": map[string]interface{}{
				"workload": name, "traced": false, "seed": i + 1, "input_sha256": input,
				"attempted": 1000, "failed": r.failed,
				"metrics": map[string]interface{}{
					"read_p50_ms":   map[string]interface{}{"value": r.p50, "unit": "ms", "n": 1000, "percentile": 50},
					"ops_per_s":     map[string]interface{}{"value": r.ops, "unit": "1/s"},
					"allocs_per_op": map[string]interface{}{"value": r.allocs, "unit": "count"},
					"layer.only_us": map[string]interface{}{"value": 1, "unit": "us"},
				},
			}}
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, i+1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return strings.Join(paths, ",")
}

// steady is n runs scattered ±2 % around the given values.
func steady(n int, p50, ops, allocs float64) []run1 {
	out := make([]run1, n)
	for i := range out {
		f := 1 + 0.02*float64(i%3-1)
		out[i] = run1{p50: p50 * f, ops: ops * f, allocs: allocs}
	}
	return out
}

// diff runs benchdiff over fixture documents and returns the exit code, the
// printed table, the path of the written report and run's error.
func diff(t *testing.T, parent, change []run1, changeWrites []run1) (code int, text, out string, err error) {
	t.Helper()
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(benchSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	out = filepath.Join(dir, "BENCH_PR.json")
	var sb strings.Builder
	code, err = run([]string{
		"-bench", spec, "-out", out,
		"-parent", writeDocs(t, dir, "parent", parent, nil),
		"-change", writeDocs(t, dir, "change", change, changeWrites),
	}, &sb)
	return code, sb.String(), out, err
}

func TestAllWithinBounds(t *testing.T) {
	// 10 % slower and 10 % fewer ops: inside the 25 % bounds.
	code, text, out, err := diff(t, steady(5, 1.0, 1000, 500), steady(5, 1.1, 900, 510), nil)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, text)
	}
	if !strings.Contains(text, "6 ok, 0 worse, 0 unresolved") {
		t.Errorf("summary missing:\n%s", text)
	}
	// The written table is the BENCH_PR<N>.json schema.
	var rep report
	if err := readJSON(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 5 || len(rep.Seeds) != 5 || len(rep.Rows) != 6 || len(rep.Workloads) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	r := rep.Rows[0]
	if r.Workload != "reads" || r.Metric != "read_p50_ms" || r.Better != "lower" || r.Bound != 0.25 ||
		r.ParentMedian != 1.0 || r.ChangeMedian != 1.1 || r.Verdict != "ok" {
		t.Errorf("first row: %+v", r)
	}
	if d := r.Delta; d < 0.099 || d > 0.101 {
		t.Errorf("delta = %v, want 0.10", d)
	}
	if q := r.ParentIQR; q < 0.019 || q > 0.021 {
		t.Errorf("parent IQR = %v, want 0.02 (runs 0.98, 0.98, 1, 1, 1.02)", q)
	}
	for _, r := range rep.Rows {
		if r.Metric == "layer.only_us" {
			t.Error("a metric BENCHMARK.json does not list as end-to-end was judged")
		}
	}
}

func TestWorseNamesWorkloadAndMetric(t *testing.T) {
	// allocs_per_op +8 % on writes only: beyond its 5 % bound.
	code, text, out, err := diff(t, steady(3, 1.0, 1000, 500), steady(3, 1.0, 1000, 500), steady(3, 1.0, 1000, 540))
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v, want exit 1\n%s", code, err, text)
	}
	if !strings.Contains(text, "WORSE: writes allocs_per_op +8.0% (bound 5%)") {
		t.Errorf("regression not named:\n%s", text)
	}
	if !strings.Contains(text, "5 ok, 1 worse, 0 unresolved") {
		t.Errorf("summary:\n%s", text)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("the table of a failing comparison must still be written: %v", err)
	}
}

func TestHigherIsBetterDirection(t *testing.T) {
	// ops_per_s +40 % is a gain, not a regression...
	code, text, _, err := diff(t, steady(3, 1.0, 1000, 500), steady(3, 1.0, 1400, 500), nil)
	if err != nil || code != 0 {
		t.Fatalf("throughput gain judged worse: code=%d err=%v\n%s", code, err, text)
	}
	// ...and −40 % is one, although the number went down.
	code, text, _, err = diff(t, steady(3, 1.0, 1000, 500), steady(3, 1.0, 600, 500), nil)
	if err != nil || code != 1 {
		t.Fatalf("throughput loss not judged worse: code=%d err=%v\n%s", code, err, text)
	}
	if !strings.Contains(text, "WORSE: reads ops_per_s -40.0%") {
		t.Errorf("output:\n%s", text)
	}
}

func TestNoisyParentIsUnresolved(t *testing.T) {
	// The parent's own p50 spreads 0.5–1.5 (IQR 50 % of the median, bound
	// 25 %): a change at 1.4 cannot be called a regression on these runs.
	parent := []run1{{p50: 0.5, ops: 1000, allocs: 500}, {p50: 0.75, ops: 1000, allocs: 500}, {p50: 1.0, ops: 1000, allocs: 500},
		{p50: 1.25, ops: 1000, allocs: 500}, {p50: 1.5, ops: 1000, allocs: 500}}
	code, text, _, err := diff(t, parent, steady(5, 1.4, 1000, 500), nil)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v, want exit 0\n%s", code, err, text)
	}
	if !strings.Contains(text, "4 ok, 0 worse, 2 unresolved") {
		t.Errorf("summary:\n%s", text)
	}
}

func TestRefusals(t *testing.T) {
	base := steady(3, 1.0, 1000, 500)
	with := func(f func(rs []run1)) []run1 {
		rs := append([]run1(nil), base...)
		f(rs)
		return rs
	}
	for name, tc := range map[string]struct {
		parent, change []run1
		want           string
	}{
		"failed share rose":      {base, with(func(rs []run1) { rs[1].failed = 3 }), "failed share rose"},
		"input differs":          {base, with(func(rs []run1) { rs[2].input = "other" }), "input_sha256 differs"},
		"unequal document count": {base, steady(2, 1.0, 1000, 500), "3 parent documents but 2 change documents"},
	} {
		code, text, out, err := diff(t, tc.parent, tc.change, nil)
		if err == nil || code != 2 || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: code=%d err=%v, want exit 2 naming %q\n%s", name, code, err, tc.want, text)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: a refused comparison wrote a table", name)
		}
	}
	// Failures on both sides in the same share are comparable.
	failing := with(func(rs []run1) { rs[0].failed = 2 })
	if code, text, _, err := diff(t, failing, failing, nil); err != nil || code != 0 {
		t.Errorf("equal failed share refused: code=%d err=%v\n%s", code, err, text)
	}
	// Mismatched seeds: the same documents in another order.
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(benchSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	p := strings.Split(writeDocs(t, dir, "parent", base, nil), ",")
	c := writeDocs(t, dir, "change", base, nil)
	var sb strings.Builder
	code, err := run([]string{"-bench", spec, "-parent", p[1] + "," + p[0] + "," + p[2], "-change", c}, &sb)
	if err == nil || code != 2 || !strings.Contains(err.Error(), "parent ran seed 2, change seed 1") {
		t.Errorf("swapped seeds: code=%d err=%v", code, err)
	}
	if code, err := run([]string{"-bench", spec, "-parent", p[0]}, &sb); err == nil || code != 2 {
		t.Errorf("missing -change: code=%d err=%v", code, err)
	}
}

// The committed BENCHMARK.json and BENCH_PR<N>.json files are this tool's
// real input and output: every declared workload × end-to-end metric has a
// row in every recorded comparison, and none records a regression.
func TestCommittedFilesMatchTheSchema(t *testing.T) {
	var sp spec
	if err := readJSON("../../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		if m.Name == "" || m.Bound <= 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("BENCHMARK.json end_to_end entry %+v is not judgeable", m)
		}
	}
	files, _ := filepath.Glob("../../BENCH_PR*.json")
	if len(files) == 0 {
		t.Fatal("no BENCH_PR<N>.json at the repository root")
	}
	for _, f := range files {
		var rep report
		if err := readJSON(f, &rep); err != nil {
			t.Fatal(err)
		}
		if want := len(sp.Workloads) * len(sp.EndToEnd); len(rep.Rows) != want || rep.Pairs < 10 {
			t.Errorf("%s: %d rows from %d pairs, want %d rows from at least 10", f, len(rep.Rows), rep.Pairs, want)
		}
		for _, r := range rep.Rows {
			if r.Verdict == "worse" {
				t.Errorf("%s records a regression: %+v", f, r)
			}
		}
	}
}
