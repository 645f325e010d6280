// Command benchdiff judges a change against its parent commit from runs of
// the repository benchmark. Each input is the JSON document that
//
//	bash benchmark/run.sh --trace 0 --seed <i>
//
// prints on standard output (all five workloads, untraced), once in a
// checkout of the parent and once in the change, for seeds 1..N with the
// order of the two sides alternating.
//
// Usage:
//
//	benchdiff -parent p1.json,p2.json,... -change c1.json,c2.json,... [-bench BENCHMARK.json] [-out BENCH_PR<N>.json]
//
// The i-th parent document is paired with the i-th change document; the two
// must carry the same seed and, per workload, the same input_sha256, or
// they did not run the same traffic and nothing can be said. Workloads,
// end-to-end metrics, which direction is better and the bound by which a
// metric may worsen all come from BENCHMARK.json.
//
// For every workload × end-to-end metric the table gives the parent's
// median, the change's median, Δ (change over parent), the parent's
// interquartile range relative to its median, and a verdict: ok (the
// change's median is no worse than the parent's by more than the bound),
// worse (it is: exit status 1), or unresolved (the parent's own runs spread
// wider than the bound, so these runs can show neither a regression nor its
// absence; it does not fail the gate). Documents that cannot be compared —
// unequal numbers of parent and change documents, mismatched seeds or
// inputs, a missing workload or metric, a larger share of failed operations
// in the change — are refused with exit status 2. OPERATIONS.md "Benchmarks
// and the perf gate" says how to produce the documents and read the table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the verdicts depend on.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"` // "lower" or "higher"
		Bound  float64 `json:"bound"`  // relative: 0.25 = 25 %
	} `json:"end_to_end"`
}

// document is one benchmark run of every workload: workload → "untraced" →
// result (benchmark/main.go printDocument).
type document map[string]map[string]result

type result struct {
	Seed        int64  `json:"seed"`
	InputSHA256 string `json:"input_sha256"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	Metrics     map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// report is the BENCH_PR<N>.json schema: what was run and one row per
// workload × end-to-end metric. Delta and ParentIQR are fractions of the
// parent's median.
type report struct {
	Pairs     int            `json:"pairs"`
	Seeds     []int64        `json:"seeds"`
	Workloads []workloadOps  `json:"workloads"`
	Rows      []row          `json:"rows"`
	Verdicts  map[string]int `json:"verdicts"`
}

type workloadOps struct {
	Name            string `json:"name"`
	ParentAttempted int    `json:"parent_attempted"`
	ParentFailed    int    `json:"parent_failed"`
	ChangeAttempted int    `json:"change_attempted"`
	ChangeFailed    int    `json:"change_failed"`
}

type row struct {
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Unit         string  `json:"unit"`
	Better       string  `json:"better"`
	Bound        float64 `json:"bound"`
	ParentMedian float64 `json:"parent_median"`
	ChangeMedian float64 `json:"change_median"`
	Delta        float64 `json:"delta"`
	ParentIQR    float64 `json:"parent_iqr"`
	Verdict      string  `json:"verdict"`
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
		parentPaths = fs.String("parent", "", "comma-separated benchmark documents of the parent commit, one per seed")
		changePaths = fs.String("change", "", "comma-separated benchmark documents of the change, same seeds in the same order")
		benchPath   = fs.String("bench", "BENCHMARK.json", "the benchmark declaration: workloads, end-to-end metrics, directions and bounds")
		outPath     = fs.String("out", "", "also write the table as JSON here (BENCH_PR<N>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *parentPaths == "" || *changePaths == "" {
		return 2, fmt.Errorf("both -parent and -change are required")
	}
	var sp spec
	if err := readJSON(*benchPath, &sp); err != nil {
		return 2, err
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return 2, fmt.Errorf("%s declares no workloads or no end_to_end metrics", *benchPath)
	}
	parents, err := loadDocs(*parentPaths)
	if err != nil {
		return 2, err
	}
	changes, err := loadDocs(*changePaths)
	if err != nil {
		return 2, err
	}
	rep, err := compare(sp, parents, changes)
	if err != nil {
		return 2, err
	}
	printTable(stdout, rep)
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	if rep.Verdicts["worse"] > 0 {
		return 1, nil
	}
	return 0, nil
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadDocs(paths string) ([]document, error) {
	var docs []document
	for _, p := range strings.Split(paths, ",") {
		var d document
		if err := readJSON(strings.TrimSpace(p), &d); err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// compare checks that the documents pair up and builds the report.
func compare(sp spec, parents, changes []document) (*report, error) {
	if len(parents) != len(changes) {
		return nil, fmt.Errorf("%d parent documents but %d change documents: the runs must be pairs", len(parents), len(changes))
	}
	rep := &report{Pairs: len(parents), Verdicts: map[string]int{"ok": 0, "worse": 0, "unresolved": 0}}
	for _, w := range sp.Workloads {
		ops := workloadOps{Name: w.Name}
		values := map[string][2][]float64{} // metric → parent, change values
		for i := range parents {
			p, pok := parents[i][w.Name]["untraced"]
			c, cok := changes[i][w.Name]["untraced"]
			if !pok || !cok {
				return nil, fmt.Errorf("pair %d: %s has no untraced run on both sides", i+1, w.Name)
			}
			if p.Seed != c.Seed {
				return nil, fmt.Errorf("pair %d, %s: parent ran seed %d, change seed %d", i+1, w.Name, p.Seed, c.Seed)
			}
			if p.InputSHA256 != c.InputSHA256 {
				return nil, fmt.Errorf("pair %d (seed %d), %s: input_sha256 differs (%.12s vs %.12s): the two sides did not run the same traffic",
					i+1, p.Seed, w.Name, p.InputSHA256, c.InputSHA256)
			}
			if len(rep.Seeds) == i {
				rep.Seeds = append(rep.Seeds, p.Seed)
			}
			ops.ParentAttempted += p.Attempted
			ops.ParentFailed += p.Failed
			ops.ChangeAttempted += c.Attempted
			ops.ChangeFailed += c.Failed
			for _, m := range sp.EndToEnd {
				pv, pok := p.Metrics[m.Name]
				cv, cok := c.Metrics[m.Name]
				if !pok || !cok {
					return nil, fmt.Errorf("pair %d, %s: %s is not reported on both sides", i+1, w.Name, m.Name)
				}
				v := values[m.Name]
				v[0], v[1] = append(v[0], pv.Value), append(v[1], cv.Value)
				values[m.Name] = v
			}
		}
		if ops.ParentAttempted == 0 || ops.ChangeAttempted == 0 {
			return nil, fmt.Errorf("%s: no operations attempted", w.Name)
		}
		// Cross-multiplied: failed/attempted of the change above the parent's.
		if ops.ChangeFailed*ops.ParentAttempted > ops.ParentFailed*ops.ChangeAttempted {
			return nil, fmt.Errorf("%s: failed share rose from %d/%d to %d/%d: timings of failing runs are not comparable",
				w.Name, ops.ParentFailed, ops.ParentAttempted, ops.ChangeFailed, ops.ChangeAttempted)
		}
		rep.Workloads = append(rep.Workloads, ops)
		for _, m := range sp.EndToEnd {
			pq1, pmed, pq3 := quartiles(values[m.Name][0])
			_, cmed, _ := quartiles(values[m.Name][1])
			if pmed == 0 {
				return nil, fmt.Errorf("%s: parent median of %s is 0, a relative change is undefined", w.Name, m.Name)
			}
			r := row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
				ParentMedian: pmed, ChangeMedian: cmed,
				Delta: (cmed - pmed) / pmed, ParentIQR: (pq3 - pq1) / pmed}
			loss := r.Delta // how much worse, as a fraction of the parent
			if m.Better == "higher" {
				loss = -loss
			} else if m.Better != "lower" {
				return nil, fmt.Errorf("%s: better is %q, want lower or higher", m.Name, m.Better)
			}
			switch {
			case r.ParentIQR > m.Bound:
				r.Verdict = "unresolved"
			case loss > m.Bound:
				r.Verdict = "worse"
			default:
				r.Verdict = "ok"
			}
			rep.Verdicts[r.Verdict]++
			rep.Rows = append(rep.Rows, r)
		}
	}
	return rep, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// (linear interpolation between order statistics).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "benchdiff: %d pair(s), seeds %v\n", rep.Pairs, rep.Seeds)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tchange median\tΔ\tparent IQR\tbound\tverdict")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%s (%s, %s is better)\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.Better, r.ParentMedian, r.ChangeMedian, 100*r.Delta, 100*r.ParentIQR, 100*r.Bound, r.Verdict)
	}
	tw.Flush()
	for _, o := range rep.Workloads {
		fmt.Fprintf(w, "%s: failed ops parent %d/%d, change %d/%d\n", o.Name, o.ParentFailed, o.ParentAttempted, o.ChangeFailed, o.ChangeAttempted)
	}
	for _, r := range rep.Rows {
		if r.Verdict == "worse" {
			fmt.Fprintf(w, "WORSE: %s %s %+.1f%% (bound %.0f%%)\n", r.Workload, r.Metric, 100*r.Delta, 100*r.Bound)
		}
	}
	fmt.Fprintf(w, "benchdiff: %d ok, %d worse, %d unresolved\n", rep.Verdicts["ok"], rep.Verdicts["worse"], rep.Verdicts["unresolved"])
}
