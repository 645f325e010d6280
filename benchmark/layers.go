package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"beliefdb"
	"beliefdb/internal/bsql"
	"beliefdb/internal/engine"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// This file holds what the traced runs share: driving a read through the
// layers one exported call at a time, turning spans into per-layer
// metrics, and the micro-probes of single modules. Layers are measured
// from outside — the program carries no instrumentation yet — so a span is
// the benchmark's own timing of one call into a module.

// layers drives one store's read path by hand.
type layers struct {
	st  *store.Store
	trl *bsql.Translator
}

func layersOf(db *beliefdb.DB) layers {
	return layers{st: db.Store(), trl: bsql.NewTranslator(db.Store())}
}

// read runs one SELECT the way DB.Query does — bsql.Parse,
// Translator.TranslateSelect, sqlparser.Parse, query.Run on the published
// snapshot — with one span per call under a root span for the op.
func (l layers) read(tr *tracer, id int, o op) (rows, sqlBytes int, err error) {
	root := tr.begin("bench.op", id, -1)
	defer tr.end(root)
	s := tr.begin("bsql.parse", id, root)
	stmt, err := bsql.Parse(o.text)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	sel, ok := stmt.(bsql.Select)
	if !ok {
		return 0, 0, fmt.Errorf("%q is not a SELECT", o.text)
	}
	s = tr.begin("bsql.translate", id, root)
	sql, err := l.trl.TranslateSelect(sel)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	s = tr.begin("sqlparser.parse", id, root)
	ps, err := sqlparser.Parse(sql)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	s = tr.begin("query.run", id, root)
	res, err := query.Run(l.st.DB().Snapshot(), ps)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	return len(res.Rows), len(sql), nil
}

// prepared returns the translated, parsed statement of a read, for probes
// that time the executor alone.
func (l layers) prepared(o op) (sqlparser.Statement, error) {
	stmt, err := bsql.Parse(o.text)
	if err != nil {
		return nil, err
	}
	sql, err := l.trl.TranslateSelect(stmt.(bsql.Select))
	if err != nil {
		return nil, err
	}
	return sqlparser.Parse(sql)
}

// runtimeStats are the collector's readings at the start of a traced run's
// measured phases.
type runtimeStats struct {
	pauseNS uint64
	at      time.Time
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{pauseNS: ms.PauseTotalNs, at: time.Now()}
}

// reportRuntime fills in the runtime.* metrics for the phases since start.
func reportRuntime(res *result, start runtimeStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("runtime.gc_pause_total_ms", float64(ms.PauseTotalNs-start.pauseNS)/1e6, "ms")
	// GCCPUFraction is since process start: set-up's share is in it.
	res.set("runtime.gc_cpu_share", ms.GCCPUFraction, "ratio")
	// HeapSys only grows, so at the end of the run it is the peak heap the
	// process asked the operating system for.
	res.set("runtime.heap_peak_mb", float64(ms.HeapSys)/(1<<20), "MB")
}

// reportSpans turns the spans of the traced passes into metrics: the
// median of every named span (metric name → span name), the front end's
// share of op time, and how much of the op time the layers' self times
// account for.
func reportSpans(res *result, tr *tracer, medians map[string]string) {
	for metricName, spanName := range medians {
		if v, n := spanMedianUS(tr.spans, spanName); n > 0 {
			res.setN(metricName, v, "us", n, 50)
		}
	}
	byLayer, total := layerSelf(tr.spans)
	if total == 0 {
		return
	}
	var layered int64
	for layer, ns := range byLayer {
		if layer != "bench" {
			layered += ns
		}
	}
	res.set("frontend.self_share", float64(byLayer["bsql"]+byLayer["sqlparser"])/float64(total), "ratio")
	res.set("trace.self_coverage", float64(layered)/float64(total), "ratio")
}

// overheadShare is traced ÷ untraced wall − 1 over the same ops, each side
// the sum of its passes.
func overheadShare(traced, untraced []time.Duration) float64 {
	var t, u time.Duration
	for _, d := range traced {
		t += d
	}
	for _, d := range untraced {
		u += d
	}
	if u == 0 {
		return 0
	}
	return float64(t)/float64(u) - 1
}

// withoutCollector runs fn right after a collection with the collector
// off, as the untraced run times its slices: passes that are compared with
// each other must not differ by where collection cycles happened to land.
func withoutCollector(fn func()) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
}

// tracePasses is how many times the traced and the untraced pass over the
// ops alternate; the tracing overhead is a small difference of two large
// numbers and needs more than one pair.
const tracePasses = 2

// traceReads is the traced run of a read-only workload over ops: the
// untraced reference pass (DB.Query) and the layer-by-layer pass
// alternate, then the executor is probed alone for its allocations and
// EXPLAIN is asked what it examined.
func traceReads(res *result, tr *tracer, db *beliefdb.DB, ops []op) {
	l := layersOf(db)
	t := dbTarget{db}
	memo := newRowMemo()
	var traced, untraced []time.Duration
	var sqlBytes []float64
	// As in the untraced run, the collector runs between passes, not in
	// them: the tracing overhead is a difference of a percent or two, and a
	// collection cycle landing in one pass and not the other is ten times
	// that. The warm-up pass also grows the heap to what a pass allocates,
	// so no measured pass pays for fresh pages.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, o := range ops { // warm-up, and fills the row-count memo
		res.check(doRead(t, o, memo) == nil, "warm-up read %q failed", o.text)
	}
	for pass := 0; pass < tracePasses; pass++ {
		runtime.GC()
		t0 := time.Now()
		for _, o := range ops {
			res.check(doRead(t, o, memo) == nil, "untraced read %q failed or changed its row count", o.text)
		}
		untraced = append(untraced, time.Since(t0))
		runtime.GC()
		t0 = time.Now()
		for i, o := range ops {
			rows, n, err := l.read(tr, i, o)
			res.check(err == nil && memo.check(o.text, rows) == nil, "layered read %q: rows=%d err=%v", o.text, rows, err)
			sqlBytes = append(sqlBytes, float64(n))
		}
		traced = append(traced, time.Since(t0))
	}
	res.set("trace.overhead_share", overheadShare(traced, untraced), "ratio")
	res.setN("sqlparser.sql_bytes", median(sqlBytes), "B", len(sqlBytes), 50)
	reportSpans(res, tr, map[string]string{
		"bsql.parse_us":      "bsql.parse",
		"bsql.translate_us":  "bsql.translate",
		"sqlparser.parse_us": "sqlparser.parse",
		"query.run_us":       "query.run",
	})

	// The executor alone, on prepared statements: allocations per run.
	var stmts []sqlparser.Statement
	for _, o := range ops {
		ps, err := l.prepared(o)
		if err != nil {
			res.check(false, "preparing %q: %v", o.text, err)
			continue
		}
		stmts = append(stmts, ps)
	}
	before := readCounters()
	for _, ps := range stmts {
		if _, err := query.Run(l.st.DB().Snapshot(), ps); err != nil {
			res.check(false, "prepared run: %v", err)
		}
	}
	after := readCounters()
	if len(stmts) > 0 {
		res.setN("query.allocs_per_run", float64(after.mallocs-before.mallocs)/float64(len(stmts)), "count", len(stmts), 0)
	}
	reportExplain(res, t, ops, memo)
}

// reportExplain asks EXPLAIN, per distinct text, which access paths the
// planner took and how many rows each step produced. Both numbers are
// exact counts: rows examined per row returned, and the share of ops whose
// plan holds a full scan.
func reportExplain(res *result, t target, ops []op, memo *rowMemo) {
	type plan struct {
		examined int
		fullScan bool
	}
	plans := map[string]plan{}
	var examined, returned, fullScans int
	for _, o := range ops {
		p, ok := plans[o.text]
		if !ok {
			rows, err := t.query("explain " + o.text)
			if err != nil {
				res.check(false, "explain %q: %v", o.text, err)
				continue
			}
			for _, r := range rows { // binding, access_path, detail, rows
				p.examined += int(r[3].AsInt())
				if r[1].AsString() == "full scan" {
					p.fullScan = true
				}
			}
			plans[o.text] = p
		}
		examined += p.examined
		returned += max(memo.rows[o.text], 1)
		if p.fullScan {
			fullScans++
		}
	}
	if len(ops) > 0 {
		res.setN("query.rows_examined_per_row", float64(examined)/float64(returned), "ratio", len(ops), 0)
		res.setN("query.fullscan_share", float64(fullScans)/float64(len(ops)), "ratio", len(ops), 0)
	}
}

// classMedians reports the median of the query.run spans of each op class
// as query.<class>_ms.
func classMedians(res *result, tr *tracer, ops []op) {
	by := map[string][]float64{}
	for _, s := range tr.spans {
		if s.Name == "query.run" {
			c := ops[s.Op].class
			by[c] = append(by[c], float64(s.End-s.Start)/1e6)
		}
	}
	for c, ds := range by {
		res.setN("query."+c+"_ms", median(ds), "ms", len(ds), 50)
	}
}

// ---- micro-probes --------------------------------------------------------

// probeScan times Table.Scan over the frozen S_v table: ns per row.
func probeScan(res *result, st *store.Store, n int) {
	t := st.DB().Snapshot().Table(relName + "_v")
	passes := max(n/100, 1)
	rows := 0
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		t.Scan(func(engine.RowID, []val.Value) bool { rows++; return true })
	}
	if rows > 0 {
		res.setN("engine.scan_ns_per_row", float64(time.Since(t0))/float64(rows), "ns", rows, 0)
	}
}

// probePK times primary-key lookups in the frozen S_star table.
func probePK(res *result, st *store.Store, n int) {
	t := st.DB().Snapshot().Table(relName + "_star")
	var keys []val.Value
	pk := t.PKCol()
	t.Scan(func(_ engine.RowID, row []val.Value) bool {
		keys = append(keys, row[pk])
		return len(keys) < 1024
	})
	if len(keys) == 0 {
		return
	}
	found := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := t.LookupPK(keys[i%len(keys)]); ok {
			found++
		}
	}
	res.setN("engine.pk_lookup_ns", float64(time.Since(t0))/float64(n), "ns", n, 0)
	res.check(found == n, "pk probe found %d of %d keys", found, n)
}

// probeFreeze times Catalog.Freeze — the MVCC publish — after a one-row
// change to each of two tables, on a catalog of the store's table shapes
// (same schemas and indexes, up to 1024 rows each) built for the probe so
// the store's own catalog is left alone.
func probeFreeze(res *result, st *store.Store, n int) {
	src := st.DB().Snapshot()
	cat := engine.NewCatalog()
	var touched []*engine.Table
	for _, name := range src.TableNames() {
		from := src.Table(name)
		to, err := cat.CreateTable(name, *from.Schema(), from.PKCol())
		if err != nil {
			res.check(false, "freeze probe: %v", err)
			return
		}
		for _, ix := range from.Indexes() {
			cols := make([]string, len(ix.Cols()))
			for i, c := range ix.Cols() {
				cols[i] = from.Schema().Columns[c].Name
			}
			if ix.Ordered() {
				_, err = to.CreateOrderedIndex(ix.Name(), cols)
			} else {
				_, err = to.CreateIndex(ix.Name(), cols)
			}
			if err != nil {
				res.check(false, "freeze probe: %v", err)
				return
			}
		}
		copied := 0
		from.Scan(func(_ engine.RowID, row []val.Value) bool {
			if _, err := to.Insert(row); err == nil {
				copied++
			}
			return copied < 1024
		})
		if strings.HasPrefix(name, relName) && copied > 0 {
			touched = append(touched, to)
		}
	}
	var ids []engine.RowID
	for _, t := range touched {
		var first engine.RowID
		t.Scan(func(id engine.RowID, _ []val.Value) bool { first = id; return false })
		ids = append(ids, first)
	}
	cat.Freeze()
	var total time.Duration
	for i := 0; i < n; i++ {
		for j, t := range touched {
			if err := t.Update(ids[j], t.Get(ids[j])); err != nil {
				res.check(false, "freeze probe update: %v", err)
				return
			}
		}
		t0 := time.Now()
		cat.Freeze()
		total += time.Since(t0)
	}
	res.setN("engine.freeze_us", float64(total)/1e3/float64(n), "us", n, 0)
}

// reportWorlds reports N, the number of belief worlds of the canonical
// Kripke structure.
func reportWorlds(res *result, st *store.Store) {
	res.set("store.worlds", float64(st.Stats().States), "count")
}
