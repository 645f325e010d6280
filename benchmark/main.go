// Command benchmark is the repository's performance instrument: five
// BeliefSQL workloads over the belief database, each run once with tracing
// off for the end-to-end metrics a curating community feels (latency,
// throughput, memory, the paper's |R*|/n overhead) and once traced for the
// per-layer metrics that say where the time went. It verifies every answer
// it times — against the paper's declarative semantics (internal/core),
// against the store's own state after a restart, and across deployment
// shapes — and fails when any is wrong.
//
// The driver's entry point is run.sh; by hand:
//
//	cd benchmark && go run . [-workload name] [-trace 0|1] [-seed n] [-seconds s] [-repeat n] [-smoke] [-out dir]
//
// With -workload the last line of standard output is the one-line JSON
// result the driver reads; without it all five workloads run untraced and
// traced, and standard output is one JSON document. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of the generated datasets and op sequences")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
		repeat  = flag.Int("repeat", 1, "run the untraced set this many times and compare the sets against the bounds")
		smoke   = flag.Bool("smoke", false, "tiny sizes, all checks, no timing claims")
		out     = flag.String("out", "out", "directory for trace files and temporary stores")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	rc := &runCtx{p: fullParams, seed: *seed, seconds: *seconds, outDir: *out, smoke: *smoke}
	if *smoke {
		rc.p, rc.seconds = smokeParams, 0
	}
	code, err := run(rc, *name, *trace, *repeat)
	// Temporary stores are removed by the runs that made them; the
	// directory that held them goes too once empty.
	os.Remove(filepath.Join(rc.outDir, "tmp"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run dispatches on the flags and returns the exit code.
func run(rc *runCtx, name string, trace, repeat int) (int, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return 1, err
	}
	if repeat > 1 {
		return runRepeat(rc, name, repeat)
	}
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return 1, fmt.Errorf("unknown workload %q", name)
		}
		if trace < 0 {
			trace = 0
		}
		res, err := runOne(rc, w, trace == 1)
		if err != nil {
			return 1, err
		}
		printTable(os.Stderr, []*result{res})
		return printContract(res), nil
	}
	var results []*result
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if (trace == 0 && traced) || (trace == 1 && !traced) {
				continue
			}
			res, err := runOne(rc, w, traced)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			results = append(results, res)
		}
	}
	printTable(os.Stderr, results)
	return printDocument(results), nil
}

// runOne runs one workload once and applies the checks common to all:
// the pinned input fingerprint and the declared metric lists.
func runOne(rc *runCtx, w workload, traced bool) (*result, error) {
	fn := w.run
	if traced {
		fn = w.trace
	}
	res, err := fn(rc)
	if err != nil {
		return nil, err
	}
	if res.InputSHA256, err = inputFingerprint(rc, w.name); err != nil {
		return nil, err
	}
	if want, ok := pinnedInput(rc, w.name); ok {
		res.check(res.InputSHA256 == want, "input_sha256 is %s, pinned %s: the generated traffic changed", res.InputSHA256, want)
	}
	for _, d := range declaredFor(traced) {
		if _, ok := res.Metrics[d.name]; !ok {
			if !traced {
				return nil, fmt.Errorf("%s did not report %s", w.name, d.name)
			}
			// A layer the workload does not exercise did no work.
			res.set(d.name, 0, d.unit)
		}
	}
	return res, nil
}

// contractLine is the driver's result format.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContract prints the one-line result with exactly the declared
// metrics of the run's kind, and returns the exit code.
func printContract(res *result) int {
	line := contractLine{Correct: res.Failed == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: map[string]contractMetric{}}
	for _, d := range declaredFor(res.Traced) {
		m := res.Metrics[d.name]
		line.Metrics[d.name] = contractMetric{Value: m.Value, Unit: d.unit}
	}
	b, _ := json.Marshal(line) // a struct of numbers and strings always marshals
	fmt.Println(string(b))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printDocument prints every result as one JSON document: workload →
// "untraced"/"traced" → metric → {value, unit, n, percentile}.
func printDocument(results []*result) int {
	doc := map[string]map[string]*result{}
	code := 0
	for _, r := range results {
		kind := "untraced"
		if r.Traced {
			kind = "traced"
		}
		if doc[r.Workload] == nil {
			doc[r.Workload] = map[string]*result{}
		}
		doc[r.Workload][kind] = r
		if r.Failed > 0 {
			code = 1
		}
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(b))
	return code
}

// printTable prints a human-readable table of every metric.
func printTable(f *os.File, results []*result) {
	tw := tabwriter.NewWriter(f, 0, 8, 2, ' ', 0)
	for _, r := range results {
		kind := "untraced"
		if r.Traced {
			kind = "traced"
		}
		fmt.Fprintf(tw, "%s (%s, seed %d)\tattempted %d\tfailed %d\tinput %.12s\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed, r.InputSHA256)
		for _, f := range r.Failures {
			fmt.Fprintf(tw, "  FAILED\t%s\n", f)
		}
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := r.Metrics[n]
			detail := ""
			if m.Percentile > 0 {
				detail = fmt.Sprintf("p%d of %d", m.Percentile, m.N)
			} else if m.N > 0 {
				detail = fmt.Sprintf("n=%d", m.N)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", n, m.Value, m.Unit, detail)
		}
	}
	tw.Flush()
}
