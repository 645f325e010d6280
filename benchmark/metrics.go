package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// decl declares one metric: BENCHMARK.json repeats these lists, and
// TestBenchmarkJSONMatches keeps the two in step.
type decl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median by which it may worsen
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them, none can be 0.
// Every timing has the largest bound the driver allows: between ten runs
// at ten seeds the quartiles of a timing lie 2-12% apart on this box, and
// the bound has to stay clear of that (README.md, "Measured at this
// commit"). Counts repeat to within a percent and are bounded at 5%.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"gc_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"overhead_ratio", "ratio", "lower", 0.05},
}

// perLayer are the metrics of single layers, from the traced run. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []decl{
	// Front end.
	{name: "sqlparser.parse_us", unit: "us", better: "lower"},
	{name: "sqlparser.sql_bytes", unit: "B", better: "lower"},
	{name: "bsql.parse_us", unit: "us", better: "lower"},
	{name: "bsql.translate_us", unit: "us", better: "lower"},
	{name: "bsql.compile_batch_us", unit: "us", better: "lower"},
	{name: "bsql.render_reparse_us", unit: "us", better: "lower"},
	{name: "frontend.self_share", unit: "ratio", better: "lower"},
	// Planner and executor.
	{name: "query.run_us", unit: "us", better: "lower"},
	{name: "query.allocs_per_run", unit: "count", better: "lower"},
	{name: "query.rows_examined_per_row", unit: "ratio", better: "lower"},
	{name: "query.fullscan_share", unit: "ratio", better: "lower"},
	{name: "query.q1_0_ms", unit: "ms", better: "lower"},
	{name: "query.q1_1_ms", unit: "ms", better: "lower"},
	{name: "query.q1_2_ms", unit: "ms", better: "lower"},
	{name: "query.q1_3_ms", unit: "ms", better: "lower"},
	{name: "query.q1_4_ms", unit: "ms", better: "lower"},
	{name: "query.q2_ms", unit: "ms", better: "lower"},
	{name: "query.q3_ms", unit: "ms", better: "lower"},
	// Storage engine.
	{name: "engine.scan_ns_per_row", unit: "ns", better: "lower"},
	{name: "engine.pk_lookup_ns", unit: "ns", better: "lower"},
	{name: "engine.freeze_us", unit: "us", better: "lower"},
	// Belief store.
	{name: "store.apply_us", unit: "us", better: "lower"},
	{name: "store.apply_mem_us", unit: "us", better: "lower"},
	{name: "store.rows_touched_per_stmt", unit: "count", better: "lower"},
	{name: "store.worlds", unit: "count", better: "lower"},
	{name: "store.conflict_share", unit: "ratio", better: "lower"},
	{name: "store.world_read_us", unit: "us", better: "lower"},
	{name: "store.entails_us", unit: "us", better: "lower"},
	{name: "store.read_under_write_ratio", unit: "ratio", better: "lower"},
	{name: "store.bulkload_s", unit: "s", better: "lower"},
	// Write-ahead log.
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.encode_ns_per_op", unit: "ns", better: "lower"},
	{name: "wal.fsync_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_stmt", unit: "B", better: "lower"},
	{name: "wal.fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.replay_ms", unit: "ms", better: "lower"},
	// Snapshots.
	{name: "snapshot.encode_ms", unit: "ms", better: "lower"},
	{name: "snapshot.decode_ms", unit: "ms", better: "lower"},
	{name: "snapshot.bytes", unit: "B", better: "lower"},
	{name: "snapshot.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "snapshot.checkpoint_stall_ms", unit: "ms", better: "lower"},
	// Wire protocol and server.
	{name: "wire.encode_ns_per_row", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_row", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_row", unit: "B", better: "lower"},
	{name: "wire.ping_rtt_us", unit: "us", better: "lower"},
	{name: "server.read_overhead_us", unit: "us", better: "lower"},
	{name: "server.write_overhead_us", unit: "us", better: "lower"},
	// Router and partitioning.
	{name: "router.read_overhead_us", unit: "us", better: "lower"},
	{name: "router.write_overhead_us", unit: "us", better: "lower"},
	{name: "router.fanout", unit: "count", better: "lower"},
	{name: "router.refused_share", unit: "ratio", better: "lower"},
	{name: "shard.owner_ns", unit: "ns", better: "lower"},
	{name: "shard.balance", unit: "ratio", better: "lower"},
	// Runtime and the tracer itself.
	{name: "runtime.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.self_coverage", unit: "ratio", better: "higher"},
	// End-to-end metrics that only some workloads exercise. The driver
	// requires every workload to report every end-to-end metric and none to
	// be 0, so these are carried here, measured on the traced run's
	// untraced reference pass (see README.md, "Demoted metrics").
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_tail_ms", unit: "ms", better: "lower"},
	{name: "disk_bytes_per_stmt", unit: "B", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
	{name: "failed_share", unit: "ratio", better: "lower"},
}

// declaredFor returns the metrics a run of the given kind must report.
func declaredFor(traced bool) []decl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// pinned holds input_sha256 per workload for the default seed at full
// size. A run at that seed fails when its generated input hashes to
// anything else: a later edit to internal/gen or to the op generators
// cannot silently change the traffic every recorded number was taken on.
var pinned = map[string]string{
	"analytic-read":   "16e2dc56c9ed10c581b29fec3229882fd280e1ade07d449e3942c7b4e82c992f",
	"point-read":      "f44ecd51d9d39510f54e06d7eced13ca1cfdf28ac37f82a9c4ad111b3becff4a",
	"curate-durable":  "8ce0b78cd5c0d474206ffec911f527daa74a4dbadab5e98d4b9433ec26bd3cec",
	"wire-mixed":      "6cb58b5a574406ed0ad0e61b3c9e24a145bcdffb6d95d36579af884f6f55ba94",
	"sharded-scatter": "cc99735defcee2b6f6d660df067ce463a89e96e5a9fa2e64a1f729483a85cfbf",
}

// pinnedInput returns the pinned fingerprint that applies to the run.
func pinnedInput(rc *runCtx, workload string) (string, bool) {
	if rc.smoke || rc.seed != 1 {
		return "", false
	}
	s, ok := pinned[workload]
	return s, ok
}

// runRepeat runs the untraced set n times and prints, per workload and
// end-to-end metric, every value, the largest relative difference between
// two sets in the worsening direction, and the bound. It returns 1 when a
// bound is breached or an answer was wrong.
func runRepeat(rc *runCtx, name string, n int) (int, error) {
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalues\tworst diff\tbound\t")
	for _, w := range workloads {
		if name != "" && w.name != name {
			continue
		}
		var sets []*result
		for i := 0; i < n; i++ {
			res, err := runOne(rc, w, false)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			if res.Failed > 0 {
				code = 1
				fmt.Fprintf(tw, "%s\tFAILED\t%v\t\t\t\n", w.name, res.Failures)
			}
			sets = append(sets, res)
		}
		for _, d := range endToEnd {
			vals := make([]float64, n)
			text := ""
			for i, r := range sets {
				vals[i] = r.Metrics[d.name].Value
				text += fmt.Sprintf("%.5g ", vals[i])
			}
			diff := worstDiff(vals, d.better)
			verdict := ""
			if diff > d.bound {
				verdict = "BREACH"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%.0f%%\t%s\n", w.name, d.name, text, 100*diff, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	return code, nil
}

// worstDiff is the largest share by which a later set is worse than an
// earlier one.
func worstDiff(vals []float64, better string) float64 {
	worst := 0.0
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if vals[i] == 0 {
				continue
			}
			d := (vals[j] - vals[i]) / vals[i]
			if better == "higher" {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
