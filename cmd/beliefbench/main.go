// Command beliefbench regenerates the paper's evaluation artifacts:
// Table 1 (relative overhead grid), Figure 6 (overhead vs. number of
// annotations), Table 2 (query latencies), and the Sect. 5.4 space-bound
// ablation — plus the durability benchmark (WAL append/replay, snapshot
// write/load), the group-commit ingest benchmark (fsyncs per statement at
// several batch sizes), and the client/server ingest benchmark (fsyncs
// per statement at several concurrent-client counts through a live
// beliefserver), the mixed read-under-write benchmark (parallel
// content queries racing a streaming batch writer, tracking reader latency
// under ingest), and the range-query benchmark (ordered-index range walks
// and top-k vs. full scans across a selectivity sweep), which have no
// counterpart in the paper.
//
// Usage:
//
//	beliefbench [-table1] [-figure6] [-table2] [-bounds] [-durability] [-batch N] [-serve N] [-replicas N] [-shards N] [-mixed] [-ranges] [-chaos] [-all] [-full] [-json] [-n N] [-reps R] [-qreps Q] [-seed S]
//
// -replicas measures the WAL-shipping read-replica fleet: ingest through
// the primary with N followers attached, reporting replica-served read
// latency, the worst replication lag sampled during ingest, and the
// post-ingest catchup time.
//
// -shards measures the hash-partitioned cluster: concurrent writers
// ingest through a beliefrouter fronting N shards (each shard its own
// durable WAL, so commits parallelize), reporting ingest throughput and
// the cost of scattered reads — a belief-world query merged by global
// dedup, and a grouped aggregate recombined from per-shard partials.
//
// -chaos runs the seeded fault-injection schedule from internal/bench
// against a live loopback server and exits non-zero on any invariant
// violation; it is excluded from -all so robustness runs never perturb
// the benchdiff performance trajectories.
//
// Without -full, scaled-down parameters keep runtime in seconds; -full uses
// the paper's parameters (n = 10,000 annotations, 10 databases per Table 1
// cell, 1,000 executions per query) and can take many minutes and several
// GB of memory for the m=100/uniform cells.
//
// With -json the selected artifacts are emitted as one JSON array of
// {name, ns_per_op, allocs_per_op, value, unit} records instead of the
// human-readable tables, so successive runs can be recorded as
// BENCH_*.json trajectories and diffed mechanically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"beliefdb/internal/bench"
)

// benchRecord is one machine-readable measurement. The field vocabulary
// mirrors Go's testing.B output (ns/op, allocs/op) so trajectory tooling
// can treat beliefbench artifacts and `go test -bench` results alike;
// artifacts that measure a dimensionless quantity (relative overhead, row
// counts) carry it in value/unit instead.
type benchRecord struct {
	// The numeric fields are always emitted — a measured zero must stay
	// distinguishable from "not measured" when diffing BENCH_*.json runs.
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Value       float64 `json:"value"`
	Unit        string  `json:"unit,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "beliefbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beliefbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1  = fs.Bool("table1", false, "run the Table 1 overhead grid")
		figure6 = fs.Bool("figure6", false, "run the Figure 6 overhead-vs-n sweep")
		table2  = fs.Bool("table2", false, "run the Table 2 query benchmark")
		bounds  = fs.Bool("bounds", false, "run the Sect. 5.4 space-bound ablation")
		durab   = fs.Bool("durability", false, "run the WAL/snapshot durability benchmark")
		batchN  = fs.Int("batch", 0, "run the group-commit ingest benchmark comparing batch size N against size 1 (with -all alone: sizes 1, 16, 256)")
		serveN  = fs.Int("serve", 0, "run the client/server ingest benchmark comparing N concurrent clients against 1 (with -all alone: 1, 4, 16)")
		replN   = fs.Int("replicas", 0, "run the read-replica benchmark with N WAL-shipping followers (with -all alone: 1, 2, 4)")
		shardN  = fs.Int("shards", 0, "run the sharding benchmark with N hash partitions behind a router (with -all alone: 1, 2, 4)")
		mixed   = fs.Bool("mixed", false, "run the mixed read-under-write benchmark (parallel content queries vs. a streaming batch writer)")
		ranges  = fs.Bool("ranges", false, "run the range-query benchmark (ordered-index walks and top-k vs. full scans)")
		chaos   = fs.Bool("chaos", false, "run the seeded chaos schedule against a live server and report invariant violations (not part of -all)")
		seed    = fs.Int64("seed", 0, "override the chaos fault-schedule seed")
		all     = fs.Bool("all", false, "run everything except -chaos")
		full    = fs.Bool("full", false, "use the paper's full-scale parameters")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON records instead of tables")
		n       = fs.Int("n", 0, "override the number of annotations")
		reps    = fs.Int("reps", 0, "override databases per Table 1/Figure 6 cell")
		qreps   = fs.Int("qreps", 0, "override executions per Table 2 query")
		verbose = fs.Bool("v", false, "print per-cell progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*table1 || *figure6 || *table2 || *bounds || *durab || *batchN > 0 || *serveN > 0 || *replN > 0 || *shardN > 0 || *mixed || *ranges || *chaos || *all) {
		*all = true
	}
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(stderr, s) }
	}
	var records []benchRecord
	violations := 0
	emit := func(text string, recs []benchRecord) {
		if *jsonOut {
			records = append(records, recs...)
		} else {
			fmt.Fprintln(stdout, text)
		}
	}

	if *all || *table1 {
		cfg := bench.DefaultTable1()
		if *full {
			cfg = bench.FullTable1()
		}
		if *n > 0 {
			cfg.N = *n
		}
		if *reps > 0 {
			cfg.Reps = *reps
		}
		res, err := bench.RunTable1(cfg, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, c := range res.Cells {
			name := fmt.Sprintf("table1/m%d/%s/d%v", c.Users, c.Participation, c.DepthDist)
			recs = append(recs,
				benchRecord{Name: name, NsPerOp: float64(c.BuildTime), Value: c.Overhead, Unit: "overhead"})
		}
		emit(res.Render(), recs)
	}
	if *all || *figure6 {
		cfg := bench.DefaultFigure6()
		if *full {
			cfg = bench.FullFigure6()
		}
		if *reps > 0 {
			cfg.Reps = *reps
		}
		res, err := bench.RunFigure6(cfg, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for si, s := range res.Series {
			for j, nn := range cfg.Ns {
				recs = append(recs, benchRecord{
					Name:  fmt.Sprintf("figure6/s%d/n%d", si, nn),
					Value: s.Overheads[j],
					Unit:  "overhead",
				})
			}
		}
		emit(res.Render(), recs)
	}
	if *all || *table2 {
		cfg := bench.DefaultTable2()
		if *full {
			cfg = bench.FullTable2()
		}
		if *n > 0 {
			cfg.N = *n
		}
		if *qreps > 0 {
			cfg.QueryReps = *qreps
		}
		res, err := bench.RunTable2(cfg, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range res.Rows {
			recs = append(recs, benchRecord{
				Name:        "table2/" + r.Name,
				NsPerOp:     float64(r.Mean),
				AllocsPerOp: r.AllocsPerOp,
				Value:       float64(r.ResultSize),
				Unit:        "result_rows",
			})
		}
		emit(res.Render(), recs)
	}
	if *all || *bounds {
		nb := 1000
		if *n > 0 {
			nb = *n
		}
		rows, err := bench.RunSpaceBounds(nb, 10, 4)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs,
				benchRecord{Name: fmt.Sprintf("bounds/dmax%d/E", r.MaxDepth), Value: float64(r.ERows), Unit: "rows"},
				benchRecord{Name: fmt.Sprintf("bounds/dmax%d/V", r.MaxDepth), Value: float64(r.VRows), Unit: "rows"})
		}
		emit(bench.RenderSpaceBounds(rows), recs)
	}

	if *all || *durab {
		nd := 1000
		if *full {
			nd = 10000
		}
		if *n > 0 {
			nd = *n
		}
		res, err := bench.RunDurability(nd, 10, 6, progress)
		if err != nil {
			return err
		}
		recs := []benchRecord{
			{Name: "durability/build", NsPerOp: res.BuildNsPerOp, Value: float64(res.Ops), Unit: "journaled_ops"},
			{Name: "durability/wal-replay", NsPerOp: res.WALReplayNs, Value: float64(res.WALBytes), Unit: "bytes"},
			{Name: "durability/checkpoint", NsPerOp: res.CheckpointNs, Value: float64(res.SnapshotBytes), Unit: "bytes"},
			{Name: "durability/snapshot-load", NsPerOp: res.SnapshotLoadNs, Value: float64(res.SnapshotBytes), Unit: "bytes"},
		}
		emit(res.Render(), recs)
	}

	if *all || *batchN > 0 {
		nb, mb := 500, 10
		if *full {
			nb = 5000
		}
		if *n > 0 {
			nb = *n
		}
		sizes := []int{1, 16, 256}
		switch {
		case *batchN == 1:
			sizes = []int{1}
		case *batchN > 1:
			sizes = []int{1, *batchN}
		}
		rows, err := bench.RunBatchIngest(nb, mb, 9, sizes, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs, benchRecord{
				Name:    fmt.Sprintf("batch/size%d", r.Size),
				NsPerOp: r.NsPerStmt,
				Value:   r.SyncsPerOp,
				Unit:    "fsyncs_per_stmt",
			})
		}
		emit(bench.RenderBatchIngest(rows, nb, mb), recs)
	}

	if *all || *serveN > 0 {
		ns, ms := 300, 10
		if *full {
			ns = 3000
		}
		if *n > 0 {
			ns = *n
		}
		counts := []int{1, 4, 16}
		switch {
		case *serveN == 1:
			counts = []int{1}
		case *serveN > 1:
			counts = []int{1, *serveN}
		}
		rows, err := bench.RunServerBench(ns, ms, 13, counts, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs, benchRecord{
				Name:    fmt.Sprintf("server/clients%d", r.Clients),
				NsPerOp: r.NsPerStmt,
				Value:   r.SyncsPerStmt,
				Unit:    "fsyncs_per_stmt",
			})
		}
		emit(bench.RenderServerBench(rows, ns, ms), recs)
	}

	if *all || *replN > 0 {
		nr, mr := 200, 10
		if *full {
			nr = 2000
		}
		if *n > 0 {
			nr = *n
		}
		counts := []int{1, 2, 4}
		switch {
		case *replN == 1:
			counts = []int{1}
		case *replN > 1:
			counts = []int{1, *replN}
		}
		rows, err := bench.RunReplicaBench(nr, mr, 21, counts, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs,
				benchRecord{
					Name:    fmt.Sprintf("replicas/r%d/read", r.Replicas),
					NsPerOp: r.ReadNsPerOp,
					Value:   float64(r.MaxLagRecs),
					Unit:    "max_lag_records",
				},
				benchRecord{
					Name:    fmt.Sprintf("replicas/r%d/catchup", r.Replicas),
					NsPerOp: r.CatchupNs,
					Value:   float64(r.ReadFallback),
					Unit:    "read_fallbacks",
				})
		}
		emit(bench.RenderReplicaBench(rows, nr, mr), recs)
	}

	if *all || *shardN > 0 {
		nh, mh := 200, 10
		if *full {
			nh = 2000
		}
		if *n > 0 {
			nh = *n
		}
		counts := []int{1, 2, 4}
		switch {
		case *shardN == 1:
			counts = []int{1}
		case *shardN > 1:
			counts = []int{1, *shardN}
		}
		rows, err := bench.RunShardBench(nh, mh, 29, counts, 24, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs,
				benchRecord{
					Name:    fmt.Sprintf("shards/s%d/ingest", r.Shards),
					NsPerOp: r.IngestNsPer,
					Value:   r.StmtsPerSec,
					Unit:    "stmts_per_sec",
				},
				benchRecord{
					Name:    fmt.Sprintf("shards/s%d/read", r.Shards),
					NsPerOp: r.ReadNsPerOp,
					Value:   r.AggNsPerOp,
					Unit:    "agg_ns_per_op",
				})
		}
		emit(bench.RenderShardBench(rows, nh, mh), recs)
	}

	if *all || *mixed {
		nm, mm := 1000, 10
		if *full {
			nm = 5000
		}
		if *n > 0 {
			nm = *n
		}
		rows, err := bench.RunMixedReadUnderWrite(nm, mm, 17, []int{1, 4}, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs,
				benchRecord{
					Name:    fmt.Sprintf("mixed/readers%d/read", r.Readers),
					NsPerOp: r.ReadNs,
					Value:   float64(r.Reads),
					Unit:    "queries",
				},
				benchRecord{
					Name:    fmt.Sprintf("mixed/readers%d/write", r.Readers),
					NsPerOp: r.WriteNs,
					Value:   float64(r.WriterStmts),
					Unit:    "stmts",
				})
		}
		emit(bench.RenderMixed(rows, nm, mm), recs)
	}

	if *all || *ranges {
		nr := 20000
		if *full {
			nr = 100000
		}
		if *n > 0 {
			nr = *n * 20 // default -n values are small; ranges needs a big table
		}
		rr := 5
		if *qreps > 0 {
			rr = *qreps
		}
		rows, err := bench.RunRanges(nr, []float64{0.001, 0.01, 0.1}, rr, progress)
		if err != nil {
			return err
		}
		var recs []benchRecord
		for _, r := range rows {
			recs = append(recs, benchRecord{
				Name:    fmt.Sprintf("ranges/%s", r.Label),
				NsPerOp: r.IndexedNs,
				Value:   r.Speedup,
				Unit:    "x_vs_scan",
			})
		}
		emit(bench.RenderRanges(rows, nr), recs)
	}

	// Chaos is deliberately outside -all: it measures robustness, not
	// performance, so its records must not perturb benchdiff trajectories.
	if *chaos {
		cfg := bench.DefaultChaos()
		if *full {
			cfg.Ops, cfg.Restarts = 2000, 3
		}
		if *n > 0 {
			cfg.Ops = *n
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		res, err := bench.RunChaos(cfg, progress)
		if err != nil {
			return err
		}
		recs := []benchRecord{
			{Name: "chaos/acked", Value: float64(res.Acked), Unit: "batches"},
			{Name: "chaos/faults", Value: float64(res.Faults), Unit: "faults"},
			{Name: "chaos/restarts", Value: float64(res.Restarts), Unit: "restarts"},
			{Name: "chaos/reads", Value: float64(res.Reads), Unit: "reads"},
			{Name: "chaos/violations", Value: float64(len(res.Violations)), Unit: "violations"},
		}
		emit(res.Render(), recs)
		if len(res.Violations) > 0 {
			// Render (or the JSON below) carries the details; the non-zero
			// exit is what a chaos CI job keys on.
			for _, v := range res.Violations {
				fmt.Fprintln(stderr, "chaos violation:", v)
			}
			violations = len(res.Violations)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			return err
		}
	}
	if violations > 0 {
		return fmt.Errorf("chaos: %d invariant violations", violations)
	}
	return nil
}
