package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `[
  {"name": "a", "ns_per_op": 1000, "allocs_per_op": 10},
  {"name": "b", "ns_per_op": 2000},
  {"name": "c", "ns_per_op": 3000},
  {"name": "d", "ns_per_op": 4000},
  {"name": "overhead-only", "ns_per_op": 0, "value": 4.2},
  {"name": "removed", "ns_per_op": 500}
]`

func TestDiffPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", baseline)
	// Everything ~10% slower uniformly (a slower machine) plus a new
	// record; median normalization cancels the shift.
	newP := writeJSON(t, dir, "new.json", `[
	  {"name": "a", "ns_per_op": 1100},
	  {"name": "b", "ns_per_op": 2200},
	  {"name": "c", "ns_per_op": 3300},
	  {"name": "d", "ns_per_op": 4400},
	  {"name": "brand-new", "ns_per_op": 9999}
	]`)
	var out strings.Builder
	code, err := run([]string{"-old", oldP, "-new", newP}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "4 shared record(s)") {
		t.Errorf("output:\n%s", out.String())
	}
	// A record only the baseline has (a phase since dropped from the suite,
	// like lazy/* in BENCH_PR9/10.json) is reported as skipped, not failed.
	if !strings.Contains(out.String(), "1 baseline-only record(s) skipped: removed") {
		t.Errorf("baseline-only record not reported:\n%s", out.String())
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", baseline)
	// One record 2x slower while the rest hold: a real regression that
	// normalization must not hide.
	newP := writeJSON(t, dir, "new.json", `[
	  {"name": "a", "ns_per_op": 1000},
	  {"name": "b", "ns_per_op": 4000},
	  {"name": "c", "ns_per_op": 3000},
	  {"name": "d", "ns_per_op": 4000}
	]`)
	var out strings.Builder
	code, err := run([]string{"-old", oldP, "-new", newP, "-max-regress", "25"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("code = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "✗ b") {
		t.Errorf("regressed record not flagged:\n%s", out.String())
	}
}

func TestDiffUniformSlowdownFailsWithoutNormalize(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", baseline)
	newP := writeJSON(t, dir, "new.json", `[
	  {"name": "a", "ns_per_op": 1500},
	  {"name": "b", "ns_per_op": 3000},
	  {"name": "c", "ns_per_op": 4500},
	  {"name": "d", "ns_per_op": 6000}
	]`)
	var out strings.Builder
	code, err := run([]string{"-old", oldP, "-new", newP, "-normalize=false"}, &out)
	if err != nil || code != 1 {
		t.Fatalf("raw mode: code=%d err=%v", code, err)
	}
	out.Reset()
	code, err = run([]string{"-old", oldP, "-new", newP}, &out)
	if err != nil || code != 0 {
		t.Fatalf("normalized mode: code=%d err=%v\n%s", code, err, out.String())
	}
}

func TestDiffMinNsFloor(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", `[
	  {"name": "fast", "ns_per_op": 10},
	  {"name": "a", "ns_per_op": 1000},
	  {"name": "b", "ns_per_op": 2000},
	  {"name": "c", "ns_per_op": 3000}
	]`)
	newP := writeJSON(t, dir, "new.json", `[
	  {"name": "fast", "ns_per_op": 100},
	  {"name": "a", "ns_per_op": 1000},
	  {"name": "b", "ns_per_op": 2000},
	  {"name": "c", "ns_per_op": 3000}
	]`)
	var out strings.Builder
	if code, err := run([]string{"-old", oldP, "-new", newP, "-min-ns", "100"}, &out); err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	if strings.Contains(out.String(), "fast") {
		t.Errorf("sub-floor record compared:\n%s", out.String())
	}
}

func TestDiffErrors(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", `[{"name": "only-here", "ns_per_op": 100}]`)
	newP := writeJSON(t, dir, "new.json", `[{"name": "only-there", "ns_per_op": 100}]`)
	var out strings.Builder
	if code, err := run([]string{"-old", oldP, "-new", newP}, &out); err == nil || code != 2 {
		t.Errorf("disjoint files: code=%d err=%v", code, err)
	}
	if code, err := run([]string{"-old", oldP}, &out); err == nil || code != 2 {
		t.Errorf("missing -new: code=%d err=%v", code, err)
	}
	bad := writeJSON(t, dir, "bad.json", "{not json")
	if code, err := run([]string{"-old", oldP, "-new", bad}, &out); err == nil || code != 2 {
		t.Errorf("bad json: code=%d err=%v", code, err)
	}
}

func TestMergeOut(t *testing.T) {
	dir := t.TempDir()
	a := writeJSON(t, dir, "a.json", `[
	  {"name": "x", "ns_per_op": 300, "allocs_per_op": 5},
	  {"name": "y", "ns_per_op": 100},
	  {"name": "overhead", "ns_per_op": 0, "value": 4.2, "unit": "overhead"}
	]`)
	b := writeJSON(t, dir, "b.json", `[
	  {"name": "x", "ns_per_op": 200, "allocs_per_op": 6},
	  {"name": "y", "ns_per_op": 150},
	  {"name": "z", "ns_per_op": 50}
	]`)
	out := filepath.Join(dir, "merged.json")
	var buf strings.Builder
	code, err := run([]string{"-merge-out", out, "-new", a + "," + b}, &buf)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	merged, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	if merged["x"].ns != 200 || merged["y"].ns != 100 || merged["z"].ns != 50 {
		t.Errorf("merged mins = %v", merged)
	}
	// Value-only records survive the merge with their fields.
	full, err := loadFull(out)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range full {
		if r.Name == "overhead" && r.Value == 4.2 && r.Unit == "overhead" {
			found = true
		}
	}
	if !found {
		t.Errorf("value-only record lost: %+v", full)
	}
}

func TestDiffNoisyRecordNotJudged(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", `[
	  {"name": "a", "ns_per_op": 1000},
	  {"name": "b", "ns_per_op": 2000},
	  {"name": "c", "ns_per_op": 3000},
	  {"name": "d", "ns_per_op": 4000},
	  {"name": "e", "ns_per_op": 5000},
	  {"name": "f", "ns_per_op": 6000}
	]`)
	// Record b is over the limit on its best run, but its two fresh runs
	// disagree with each other by more than the limit — a scheduling burst,
	// not a judgeable regression. Record c regresses consistently and must
	// still fail.
	n1 := writeJSON(t, dir, "n1.json", `[
	  {"name": "a", "ns_per_op": 1000},
	  {"name": "b", "ns_per_op": 2800},
	  {"name": "c", "ns_per_op": 6000},
	  {"name": "d", "ns_per_op": 4000},
	  {"name": "e", "ns_per_op": 5000},
	  {"name": "f", "ns_per_op": 6000}
	]`)
	n2 := writeJSON(t, dir, "n2.json", `[
	  {"name": "a", "ns_per_op": 1050},
	  {"name": "b", "ns_per_op": 5600},
	  {"name": "c", "ns_per_op": 6100},
	  {"name": "d", "ns_per_op": 4100},
	  {"name": "e", "ns_per_op": 5200},
	  {"name": "f", "ns_per_op": 6100}
	]`)
	var out strings.Builder
	code, err := run([]string{"-old", oldP, "-new", n1 + "," + n2, "-max-regress", "25"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("code = %d, want 1 (c regressed consistently)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "~ b") {
		t.Errorf("noisy record b not marked ~:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "✗ c") {
		t.Errorf("stable regression c not flagged:\n%s", out.String())
	}
}
