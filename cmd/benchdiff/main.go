// Command benchdiff compares two beliefbench -json trajectory files
// (BENCH_*.json) and fails when a shared record regressed: the CI gate
// that turns the repository's recorded perf trajectory into an enforced
// floor instead of a graph that drifts quietly.
//
// Usage:
//
//	benchdiff -old BENCH_PR4.json -new BENCH_PR5a.json,BENCH_PR5b.json [-max-regress 25] [-min-ns 0] [-normalize]
//
// Records are matched by name; only records present on both sides with a
// positive ns_per_op in both are compared (value-only artifacts such as
// overhead ratios carry no time to regress). Two defenses keep the gate
// green on noisy shared CI machines while still catching real
// regressions:
//
//   - Each side accepts a comma-separated list of trajectory files and
//     takes the per-record minimum — best-of-K, the standard way to strip
//     scheduling noise from single-shot wall-clock measurements. The CI
//     job measures the new side several times.
//   - With -normalize (the default) every new/old time ratio is divided
//     by the median ratio across the shared records, cancelling uniform
//     machine-speed differences — the committed baseline rarely comes
//     from the machine re-running it — so the gate fires on records that
//     regressed relative to the rest of the suite, which is what a code
//     change looks like. The structural blind spot: a change that slows
//     every record uniformly is indistinguishable from a slower machine,
//     so it calibrates away; when the median itself exceeds the limit a
//     prominent warning is printed instead of a failure (pass
//     -normalize=false for strict same-machine comparisons).
//   - When the new side has several runs, each record's run-to-run spread
//     (max/min across the runs) is its measured noise floor. A record
//     whose own spread exceeds the regression threshold cannot be judged
//     at that threshold — a shared-runner scheduling burst looks exactly
//     like a regression — so it is reported as noisy instead of failed. A
//     real regression measures consistently slow and still trips the
//     gate.
//
// A record whose calibrated ratio exceeds 1 + max-regress/100 (and whose
// measurement is stable at that threshold) fails the run (exit 1);
// -min-ns skips records too fast for a stable ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// record mirrors beliefbench's JSON vocabulary (see cmd/beliefbench's
// benchRecord); the gate only reads name, ns_per_op and ns_spread, the
// rest rides along so -merge-out emits complete trajectory files.
// ns_spread is benchdiff's own addition: -merge-out stamps each record
// with the cross-run spread it observed, so a committed best-of-K
// baseline remembers how noisy each record was when it was measured.
type record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Value       float64 `json:"value"`
	Unit        string  `json:"unit,omitempty"`
	NsSpread    float64 `json:"ns_spread,omitempty"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		oldPath   = fs.String("old", "", "baseline BENCH_*.json (committed); comma-separate several for best-of-K")
		newPath   = fs.String("new", "", "freshly measured BENCH_*.json; comma-separate several for best-of-K")
		maxPct    = fs.Float64("max-regress", 25, "fail when a record's calibrated ns/op regressed more than this percentage")
		minNs     = fs.Float64("min-ns", 0, "ignore records whose baseline ns/op is below this floor")
		normalize = fs.Bool("normalize", true, "divide ratios by the suite-wide median ratio before thresholding (cancels machine-speed differences)")
		mergeOut  = fs.String("merge-out", "", "instead of diffing, merge the -new runs per-record (best ns/op wins) and write one trajectory file here — how a committed best-of-K baseline is produced")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *mergeOut != "" {
		if *newPath == "" {
			return 2, fmt.Errorf("-merge-out needs -new")
		}
		merged, err := loadFull(*newPath)
		if err != nil {
			return 2, err
		}
		data, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(*mergeOut, append(data, '\n'), 0o644); err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %d merged record(s) to %s\n", len(merged), *mergeOut)
		return 0, nil
	}
	if *oldPath == "" || *newPath == "" {
		return 2, fmt.Errorf("both -old and -new are required")
	}
	oldRecs, err := load(*oldPath)
	if err != nil {
		return 2, err
	}
	newRecs, err := load(*newPath)
	if err != nil {
		return 2, err
	}
	return diff(oldRecs, newRecs, *maxPct, *minNs, *normalize, stdout)
}

// sample is one side's view of a record: the best time across the side's
// runs and the spread (max/min − 1) between those runs — the record's
// measured noise floor, zero when the side has a single run.
type sample struct {
	ns     float64
	spread float64
}

// load reads one or more comma-separated trajectory files and reduces each
// timed record to its best-of-K time plus spread.
func load(paths string) (map[string]sample, error) {
	full, err := loadFull(paths)
	if err != nil {
		return nil, err
	}
	out := make(map[string]sample)
	for _, r := range full {
		if r.NsPerOp > 0 {
			out[r.Name] = sample{ns: r.NsPerOp, spread: r.NsSpread}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no timed records", paths)
	}
	return out, nil
}

// loadFull reads one or more comma-separated trajectory files and merges
// them per record: the occurrence with the best positive ns/op wins
// (value-only records keep their first occurrence), stamped with the
// record's spread — the cross-file max/min ratio, folded together with any
// spread a previously merged input already recorded. The result is sorted
// by name.
func loadFull(paths string) ([]record, error) {
	best := make(map[string]record)
	maxNs := make(map[string]float64)
	spreadIn := make(map[string]float64)
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var recs []record
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range recs {
			if r.NsPerOp > maxNs[r.Name] {
				maxNs[r.Name] = r.NsPerOp
			}
			if r.NsSpread > spreadIn[r.Name] {
				spreadIn[r.Name] = r.NsSpread
			}
			prev, ok := best[r.Name]
			if !ok || (r.NsPerOp > 0 && (prev.NsPerOp <= 0 || r.NsPerOp < prev.NsPerOp)) {
				best[r.Name] = r
			}
		}
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("%s: no records", paths)
	}
	out := make([]record, 0, len(best))
	for _, r := range best {
		if r.NsPerOp > 0 {
			r.NsSpread = max(maxNs[r.Name]/r.NsPerOp-1, spreadIn[r.Name])
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// pair is one shared record's comparison.
type pair struct {
	name         string
	oldNs, newNs float64
	ratio        float64 // new/old, calibrated when -normalize is on
	noise        float64 // the sides' worst cross-run spread
}

func diff(oldRecs, newRecs map[string]sample, maxPct, minNs float64, normalize bool, stdout io.Writer) (int, error) {
	var shared []pair
	var skipped []string // timed in the baseline, absent from the new run
	for name, o := range oldRecs {
		n, ok := newRecs[name]
		if !ok {
			skipped = append(skipped, name)
			continue
		}
		if o.ns < minNs {
			continue
		}
		shared = append(shared, pair{
			name: name, oldNs: o.ns, newNs: n.ns,
			ratio: n.ns / o.ns,
			noise: max(o.spread, n.spread),
		})
	}
	if len(shared) == 0 {
		// Nothing shared is a configuration error worth failing loudly:
		// the gate believed it was guarding something.
		return 2, fmt.Errorf("no shared timed records between baseline and new run")
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].name < shared[j].name })

	median := 1.0
	if normalize && len(shared) >= 3 {
		ratios := make([]float64, len(shared))
		for i, p := range shared {
			ratios[i] = p.ratio
		}
		sort.Float64s(ratios)
		median = ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
		if median <= 0 {
			median = 1.0
		}
		for i := range shared {
			shared[i].ratio /= median
		}
	}

	limit := 1 + maxPct/100
	var regressed, noisy int
	fmt.Fprintf(stdout, "benchdiff: %d shared record(s), machine-speed calibration ×%.3f, limit +%.0f%%\n",
		len(shared), median, maxPct)
	if median > limit {
		// A median this far off is either a much slower machine or a
		// uniform suite-wide regression — the data cannot tell them
		// apart, which is calibration's structural blind spot. Say so
		// loudly instead of cancelling it silently; a reader comparing
		// same-machine trajectories should treat this as a failure.
		fmt.Fprintf(stdout, "WARNING: the whole suite runs ×%.2f slower than the baseline; calibration cancels uniform shifts, so if old and new were measured on comparable machines this is a suite-wide regression the per-record gate below cannot see\n", median)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  %-40s %14s %14s %10s %8s\n", "record", "old ns/op", "new ns/op", "Δ", "noise")
	for _, p := range shared {
		marker := "  "
		if p.ratio > limit {
			// A record whose own run-to-run spread exceeds the threshold
			// cannot distinguish a regression from a scheduling burst at
			// this limit; report it instead of failing on it.
			if p.noise*100 > maxPct {
				marker = "~ "
				noisy++
			} else {
				marker = "✗ "
				regressed++
			}
		}
		fmt.Fprintf(stdout, "%s%-40s %14.0f %14.0f %+9.1f%% %7.0f%%\n",
			marker, p.name, p.oldNs, p.newNs, (p.ratio-1)*100, p.noise*100)
	}
	if len(skipped) > 0 {
		// A phase removed from the suite leaves its records behind in the
		// committed baselines; that is a skip to see, not a failure.
		sort.Strings(skipped)
		fmt.Fprintf(stdout, "\n%d baseline-only record(s) skipped: %s\n", len(skipped), strings.Join(skipped, ", "))
	}
	if noisy > 0 {
		fmt.Fprintf(stdout, "\n%d record(s) over the limit but noisier than the limit itself (~): not judged\n", noisy)
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "\n%d record(s) regressed beyond +%.0f%% (calibrated)\n", regressed, maxPct)
		return 1, nil
	}
	fmt.Fprintf(stdout, "\nno regressions beyond +%.0f%%\n", maxPct)
	return 0, nil
}
