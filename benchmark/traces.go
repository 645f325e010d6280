package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/server"
	"beliefdb/internal/shard"
	"beliefdb/internal/snapshot"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
	"beliefdb/internal/wal"
	"beliefdb/internal/wire"
)

// The traced runs. Each covers the first rc.p.traceOps ops of the sequence
// the untraced run times, driving the layers itself where it can and
// separating the rest by subtraction (the same text sent embedded, to a
// server, through the router). What a traced run reports as write_p50_ms,
// disk_bytes_per_stmt and the like comes from its untraced reference pass.

// finishTrace writes the span file and the metrics every traced run has.
func finishTrace(rc *runCtx, res *result, tr *tracer, start runtimeStats) error {
	reportRuntime(res, start)
	res.set("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	return tr.write(rc.outDir, res.Workload, rc.seed)
}

// setupReadTimed is setupRead with the bulk load timed on its own.
func setupReadTimed(rc *runCtx, res *result) (*readEnv, error) {
	data, err := build(dRead, rc.p.nRead)
	if err != nil {
		return nil, err
	}
	db, err := beliefdb.Open(schema())
	if err != nil {
		return nil, err
	}
	if err := addUsers(db); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := bulkLoad(db, data.stmts); err != nil {
		return nil, err
	}
	res.set("store.bulkload_s", time.Since(t0).Seconds(), "s")
	return &readEnv{embedded: &embedded{db: db}, data: data}, nil
}

func traceAnalytic(rc *runCtx) (*result, error) {
	res := newResult("analytic-read", true, rc.seed)
	env, err := setupReadTimed(rc, res)
	if err != nil {
		return nil, err
	}
	defer env.close()
	var ops []op
	for next := analyticPasses(rc.seed); len(ops) < rc.p.traceOps/4; { // these ops are ~10x heavier than the other workloads'
		ops = append(ops, next()...)
	}
	tr, start := newTracer(), readRuntime()
	traceReads(res, tr, env.db, ops)
	classMedians(res, tr, ops)
	probeScan(res, env.db.Store(), rc.p.probeN)
	reportWorlds(res, env.db.Store())
	return res, finishTrace(rc, res, tr, start)
}

func tracePoint(rc *runCtx) (*result, error) {
	res := newResult("point-read", true, rc.seed)
	env, err := setupReadTimed(rc, res)
	if err != nil {
		return nil, err
	}
	defer env.close()
	mix := newReadMix(clientSeed(rc.seed, 0), env.data)
	ops := make([]op, 4*rc.p.traceOps)
	for i := range ops {
		ops[i] = mix.point()
	}
	tr, start := newTracer(), readRuntime()
	traceReads(res, tr, env.db, ops)
	probePK(res, env.db.Store(), rc.p.probeN)
	reportWorlds(res, env.db.Store())
	return res, finishTrace(rc, res, tr, start)
}

// ---- curate-durable ------------------------------------------------------

// timedSink is a WAL sink that times its fsyncs.
type timedSink struct {
	wal.FileSink
	syncs []float64 // microseconds
}

func (s *timedSink) Sync() error {
	t0 := time.Now()
	err := s.FileSink.Sync()
	s.syncs = append(s.syncs, float64(time.Since(t0))/1e3)
	return err
}

// walOps renders store batch ops as the WAL records the store journals for
// them.
func walOps(ops []store.BatchOp) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, o := range ops {
		if o.Delete {
			out[i] = wal.Delete(o.Stmt)
		} else {
			out[i] = wal.Insert(o.Stmt)
		}
	}
	return out
}

// curateTracer applies the writes of the traced pass layer by layer.
type curateTracer struct {
	tr   *tracer
	st   *store.Store // the durable store
	trl  *bsql.Translator
	twin *store.Store // the same statements, in memory: reconcile + publish without a journal
	log  *wal.Log     // the same records, into a scratch file: journal without a store
	sink *timedSink
	walN int // statements journaled into the scratch log
	// inserts accepted and the rows |R*| grew by for them, on the twin
	inserts, grown int
}

// write runs one INSERT or DELETE as bsql.Parse → Translator.CompileBatch
// → Store.ApplyBatch, and an UPDATE (which a batch cannot carry) as
// bsql.Parse → Translator.ExecStmt. Outside the op's root span the same
// batch is applied to the in-memory twin and journaled into the scratch
// log, so reconcile cost and journal cost separate by subtraction.
func (c *curateTracer) write(id int, o op) error {
	root := c.tr.begin("bench.op", id, -1)
	s := c.tr.begin("bsql.parse", id, root)
	stmt, err := bsql.Parse(o.text)
	c.tr.end(s)
	if err != nil {
		c.tr.end(root)
		return err
	}
	if _, isUpdate := stmt.(bsql.Update); isUpdate {
		s = c.tr.begin("bsql.exec_update", id, root)
		r, err := c.trl.ExecStmt(stmt)
		c.tr.end(s)
		c.tr.end(root)
		if err == nil && r.Affected != o.rows {
			err = fmt.Errorf("update affected %d statements, want %d", r.Affected, o.rows)
		}
		if err != nil {
			return err
		}
		_, err = bsql.NewTranslator(c.twin).ExecStmt(stmt)
		return err
	}
	s = c.tr.begin("bsql.compile_batch", id, root)
	ops, err := c.trl.CompileBatch(o.text)
	c.tr.end(s)
	if err != nil {
		c.tr.end(root)
		return err
	}
	s = c.tr.begin("store.apply", id, root)
	br, err := c.st.ApplyBatch(ops)
	c.tr.end(s)
	c.tr.end(root)
	if err == nil && br.Changed != o.rows {
		err = fmt.Errorf("%q changed %d statements, want %d", o.text, br.Changed, o.rows)
	}
	if err != nil {
		return err
	}

	before := c.twin.Stats().TotalRows
	s = c.tr.begin("probe.store_apply_mem", id, -1)
	_, err = c.twin.ApplyBatch(ops)
	c.tr.end(s)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	if o.class == "insert" {
		c.inserts++
		c.grown += c.twin.Stats().TotalRows - before
	}
	s = c.tr.begin("probe.wal_append", id, -1)
	err = c.log.AppendBatch(walOps(ops))
	c.tr.end(s)
	c.walN += len(ops)
	return err
}

func traceCurate(rc *runCtx) (*result, error) {
	res := newResult("curate-durable", true, rc.seed)
	// Two identical stores with identical traffic generators: one for the
	// untraced reference pass, one for the traced pass over the same ops.
	t0 := time.Now()
	ref, err := setupCurate(rc)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	res.set("store.bulkload_s", time.Since(t0).Seconds(), "s")
	trc, err := setupCurate(rc)
	if err != nil {
		return nil, err
	}
	defer trc.close()
	twin, err := beliefdb.Open(schema())
	if err != nil {
		return nil, err
	}
	if err := addUsers(twin); err != nil {
		return nil, err
	}
	for _, script := range batchScripts(trc.data.stmts, rc.p.batch) {
		if _, err := twin.ExecBatch(script); err != nil {
			return nil, err
		}
	}
	scratch, err := rc.tempDir("wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	f, err := os.Create(filepath.Join(scratch, "scratch.wal"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sink := &timedSink{FileSink: wal.FileSink{F: f}}
	log, err := wal.NewLog(sink, 1)
	if err != nil {
		return nil, err
	}

	// A block of 20 commits takes about half a second (its two DELETEs and
	// one UPDATE take a tenth to a quarter of a second each), and the ops
	// run three times: untraced, traced, and beside the reader.
	blocks := max(rc.p.traceOps/(3*curateBlockOps), 1)
	tr, start := newTracer(), readRuntime()

	// The untraced reference pass (one writer, nobody else) and the traced
	// pass take turns block by block, each block right after a collection
	// and with the collector off, swapping who goes first: the two walls
	// are compared, and whichever pass runs into freshly grown heap or a
	// collection cycle would otherwise lose by tens of percent.
	refT := dbTarget{ref.db}
	var m measurement
	syncs0 := ref.db.WALSyncs()
	ct := &curateTracer{tr: tr, st: trc.db.Store(), trl: bsql.NewTranslator(trc.db.Store()),
		twin: twin.Store(), log: log, sink: sink}
	id := 0
	plain := func() {
		withoutCollector(func() {
			m.run(slice{clients: []opSource{fixed(curateBlock(ref.writes))}, do: func(_ int, o op) error { return doWrite(refT, o) }}, res, true)
		})
	}
	spanned := func() {
		withoutCollector(func() {
			for _, o := range curateBlock(trc.writes) {
				res.check(ct.write(id, o) == nil, "traced %s failed", o.class)
				id++
			}
		})
	}
	for i := 0; i < blocks; i++ {
		inTurn(i, plain, spanned)
	}
	untraced := time.Duration(m.elapsed() * float64(time.Second))
	commits := m.ops
	res.setN("wal.fsyncs_per_commit", float64(ref.db.WALSyncs()-syncs0)/float64(commits), "ratio", commits, 0)
	m.reportLatencies(res)
	var traced time.Duration
	// Only the ops' own root spans count as traced wall time; the twin and
	// scratch-log probes run outside them.
	for _, s := range tr.spans {
		if s.Name == "bench.op" {
			traced += time.Duration(s.End - s.Start)
		}
	}
	res.set("trace.overhead_share", overheadShare([]time.Duration{traced}, []time.Duration{untraced}), "ratio")
	reportSpans(res, tr, map[string]string{
		"bsql.parse_us":         "bsql.parse",
		"bsql.compile_batch_us": "bsql.compile_batch",
		"store.apply_us":        "store.apply",
		"store.apply_mem_us":    "probe.store_apply_mem",
		"wal.append_us":         "probe.wal_append",
	})
	res.setN("wal.fsync_us", median(sink.syncs), "us", len(sink.syncs), 50)
	if st, err := f.Stat(); err == nil && ct.walN > 0 {
		res.setN("wal.bytes_per_stmt", float64(st.Size())/float64(ct.walN), "B", ct.walN, 0)
	}
	if ct.inserts > 0 {
		res.setN("store.rows_touched_per_stmt", float64(ct.grown)/float64(ct.inserts), "count", ct.inserts, 0)
	}
	// The traced store and its twin took the same statements through
	// different paths and must agree with the reference base.
	for name, db := range map[string]*beliefdb.DB{"traced store": trc.db, "in-memory twin": twin} {
		stmts, err := db.Statements()
		res.check(err == nil && statementSet(stmts) == statementSet(trc.data.base.Statements()),
			"%s differs from the reference belief base (err=%v)", name, err)
	}

	probeConflicts(res, trc.writes, twin)
	probeTypedReads(res, ref, rc.p.probeN)
	probeReadUnderWrite(res, ref, blocks)
	probeWALCodec(res, trc, rc.p.probeN)
	probeSnapshot(res, ref)
	probeCheckpoint(res, ref)
	probeFreeze(res, ref.db.Store(), rc.p.probeN)
	reportWorlds(res, ref.db.Store())
	finishCurate(res, ref)
	// The traced store was never checkpointed: its WAL holds the preload
	// and every traced commit.
	res.check(trc.db.Close() == nil, "closing the traced store failed")
	probeReplay(res, trc.dir)
	return res, finishTrace(rc, res, tr, start)
}

// probeConflicts reports the share of drawn statements the reference base
// refused (duplicates and explicit conflicts), and checks on a sample that
// the store refuses them too.
func probeConflicts(res *result, w *writeMix, twin *beliefdb.DB) {
	if w.drawn == 0 {
		return
	}
	res.setN("store.conflict_share", float64(w.rejected)/float64(w.drawn), "ratio", w.drawn, 0)
	for _, st := range w.refused {
		changed, err := twin.InsertBelief(st.Path, st.Sign, st.Tuple)
		res.check(err != nil || !changed, "the store accepted %s, which the reference base refuses", st)
	}
}

// probeTypedReads times the typed read API: materializing a depth-1 world
// and testing one entailment.
func probeTypedReads(res *result, env *curateEnv, n int) {
	st := env.db.Store()
	n = max(n/10, 1)
	var world, entails []float64
	for i := 0; i < n; i++ {
		p := env.reads.path(1)
		t0 := time.Now()
		_, err := st.WorldContent(p)
		world = append(world, float64(time.Since(t0))/1e3)
		res.check(err == nil, "WorldContent(%s): %v", p, err)
		s := env.data.stmts[i%len(env.data.stmts)]
		t0 = time.Now()
		_, err = st.Entails(p, s.Tuple, core.Pos)
		entails = append(entails, float64(time.Since(t0))/1e3)
		res.check(err == nil, "Entails: %v", err)
	}
	res.setN("store.world_read_us", median(world), "us", n, 50)
	res.setN("store.entails_us", median(entails), "us", n, 50)
}

// probeReadUnderWrite compares the reader's median latency beside a
// committing writer with its median on an idle store.
func probeReadUnderWrite(res *result, env *curateEnv, blocks int) {
	t := dbTarget{env.db}
	var busy measurement
	for i := 0; i < blocks; i++ {
		busy.run(env.slice(1, t), res, true)
	}
	during := busy.latencies(isRead)
	var idle measurement
	reads := make([]op, max(len(during), 10))
	for i := range reads {
		reads[i] = curateRead(env.reads)
	}
	idle.run(slice{clients: []opSource{fixed(reads)}, do: func(_ int, o op) error { return doRead(t, o, nil) }}, res, true)
	alone := idle.latencies(isRead)
	if len(during) > 0 && percentile(alone, 50) > 0 {
		res.setN("store.read_under_write_ratio", percentile(during, 50)/percentile(alone, 50), "ratio", len(during), 50)
		res.setN("read_p50_ms", percentile(during, 50), "ms", len(during), 50)
	}
}

// probeWALCodec times encoding the dataset's statements as WAL records.
func probeWALCodec(res *result, env *curateEnv, n int) {
	var buf []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = wal.Insert(env.data.stmts[i%len(env.data.stmts)]).Encode(buf[:0])
	}
	res.setN("wal.encode_ns_per_op", float64(time.Since(t0))/float64(n), "ns", n, 0)
}

// probeSnapshot times encoding and decoding the store's snapshot model,
// three times each: single calls of tens of milliseconds swing with
// whether a collection cycle lands in them.
func probeSnapshot(res *result, env *curateEnv) {
	model := env.db.Store().SnapshotModel()
	var enc, dec []float64
	var data []byte
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		data = model.Encode()
		enc = append(enc, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		_, err := snapshot.Decode(data)
		dec = append(dec, float64(time.Since(t0))/1e6)
		res.check(err == nil, "snapshot decode: %v", err)
	}
	res.setN("snapshot.encode_ms", median(enc), "ms", len(enc), 50)
	res.setN("snapshot.decode_ms", median(dec), "ms", len(dec), 50)
	res.set("snapshot.bytes", float64(len(data)), "B")
}

// probeCheckpoint times one checkpoint on the idle store, then one beside
// a block of commits: the slowest of those commits is the stall.
func probeCheckpoint(res *result, env *curateEnv) {
	t0 := time.Now()
	err := env.db.Checkpoint()
	res.set("snapshot.checkpoint_ms", float64(time.Since(t0))/1e6, "ms")
	res.check(err == nil, "checkpoint: %v", err)

	var m measurement
	t := dbTarget{env.db}
	done := make(chan error, 1)
	go func() { done <- env.db.Checkpoint() }()
	m.run(slice{clients: []opSource{fixed(curateBlock(env.writes))}, do: func(_ int, o op) error { return doWrite(t, o) }}, res, true)
	res.check(<-done == nil, "concurrent checkpoint failed")
	if w := m.latencies(isWrite); len(w) > 0 {
		res.setN("snapshot.checkpoint_stall_ms", w[len(w)-1], "ms", len(w), 100)
	}
}

// probeReplay times reading a closed store's WAL back: wal.Recover over
// the file and DecodeOp over every record.
func probeReplay(res *result, dir string) {
	data, err := os.ReadFile(filepath.Join(dir, store.WALFileName))
	if err != nil {
		res.check(false, "reading the WAL: %v", err)
		return
	}
	t0 := time.Now()
	payloads, _, _, err := wal.Recover(data)
	for _, p := range payloads {
		if _, derr := wal.DecodeOp(p); derr != nil && err == nil {
			err = derr
		}
	}
	res.setN("wal.replay_ms", float64(time.Since(t0))/1e6, "ms", len(payloads), 0)
	res.check(err == nil, "WAL replay: %v", err)
}

// ---- wire-mixed ----------------------------------------------------------

// probeRows times Msg.Encode and wire.Decode on row chunks built from real
// results, in the server's chunk size.
func probeRows(res *result, rows [][]val.Value, n int) {
	if len(rows) == 0 {
		return
	}
	if len(rows) > server.RowChunkSize {
		rows = rows[:server.RowChunkSize]
	}
	msg := wire.Msg{Kind: wire.KindRowChunk, Rows: rows}
	n = max(n/20, 1)
	var buf []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = msg.Encode(buf[:0])
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := wire.Decode(buf); err != nil {
			res.check(false, "wire decode: %v", err)
			return
		}
	}
	dec := time.Since(t0)
	total := float64(n * len(rows))
	res.setN("wire.encode_ns_per_row", float64(enc)/total, "ns", n*len(rows), 0)
	res.setN("wire.decode_ns_per_row", float64(dec)/total, "ns", n*len(rows), 0)
	res.set("wire.bytes_per_row", float64(len(buf))/float64(len(rows)), "B")
}

func probePing(res *result, cli *client.Client, n int) {
	n = max(n/4, 1)
	var rtts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := cli.Ping(context.Background())
		rtts = append(rtts, float64(time.Since(t0))/1e3)
		res.check(err == nil, "ping: %v", err)
	}
	res.setN("wire.ping_rtt_us", median(rtts), "us", n, 50)
}

// inTurn runs a then b on even turns and b then a on odd ones, so that
// neither of two things being compared always goes first (cold caches) or
// always second (warm ones).
func inTurn(turn int, a, b func()) {
	if turn%2 == 1 {
		a, b = b, a
	}
	a()
	b()
}

// timeOp runs do under a root span and returns its duration in ms.
func timeOp(tr *tracer, name string, id int, do func() error) (float64, error) {
	s := tr.begin(name, id, -1)
	err := do()
	tr.end(s)
	sp := tr.spans[s]
	return float64(sp.End-sp.Start) / 1e6, err
}

func traceWire(rc *runCtx) (*result, error) {
	res := newResult("wire-mixed", true, rc.seed)
	var err error
	t0 := time.Now()
	env, err := setupWire(rc)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.set("store.bulkload_s", time.Since(t0).Seconds(), "s")

	var ops []op
	for len(ops) < rc.p.traceOps {
		ops = append(ops, wireBlock(env.reads[0], env.writes)...)
	}
	tr, start := newTracer(), readRuntime()
	l := layersOf(env.db)
	emb, cli := dbTarget{env.db}, cliTarget{env.clis[0]}

	// Every read goes embedded (layer by layer) and over the wire, same
	// text, same data; writes alternate between the two paths, since a
	// statement can be inserted only once.
	var embRead, cliRead, embWrite, cliWrite []float64
	var untraced, traced time.Duration
	var streamed [][]val.Value
	writes := 0
	for i, o := range ops {
		if o.write {
			t := target(cli)
			name, into := "client.exec", &cliWrite
			if writes%2 == 1 {
				t, name, into = batchTarget{env.db}, "embedded.exec", &embWrite
			}
			writes++
			ms, err := timeOp(tr, name, i, func() error { return doWrite(t, o) })
			*into = append(*into, ms)
			res.check(err == nil, "write: %v", err)
			continue
		}
		// One discarded execution first, so that none of the timed ones
		// below is the one that finds the caches cold; the untraced and
		// the traced wire call swap places from op to op.
		rows, err := emb.query(o.text)
		res.check(err == nil, "embedded read %q: %v", o.text, err)
		t0 := time.Now()
		_, err = emb.query(o.text)
		embRead = append(embRead, float64(time.Since(t0))/1e6)
		res.check(err == nil, "embedded read %q: %v", o.text, err)
		if _, _, err := l.read(tr, i, o); err != nil {
			res.check(false, "layered read %q: %v", o.text, err)
		}
		plain := func() {
			t0 := time.Now()
			got, err := cli.query(o.text)
			untraced += time.Since(t0)
			res.check(err == nil && len(got) == len(rows), "wire read %q: %d rows, embedded %d (err=%v)", o.text, len(got), len(rows), err)
		}
		spanned := func() {
			ms, err := timeOp(tr, "client.query", i, func() error { _, err := cli.query(o.text); return err })
			traced += time.Duration(ms * 1e6)
			cliRead = append(cliRead, ms)
			res.check(err == nil, "wire read %q: %v", o.text, err)
		}
		inTurn(i, plain, spanned)
		if o.class == "location" && len(rows) > len(streamed) {
			streamed = rows
		}
	}
	res.set("trace.overhead_share", overheadShare([]time.Duration{traced}, []time.Duration{untraced}), "ratio")
	reportSpans(res, tr, map[string]string{
		"bsql.parse_us":      "bsql.parse",
		"bsql.translate_us":  "bsql.translate",
		"sqlparser.parse_us": "sqlparser.parse",
		"query.run_us":       "query.run",
	})
	res.setN("read_p50_ms", median(cliRead), "ms", len(cliRead), 50)
	res.setN("server.read_overhead_us", 1e3*(median(cliRead)-median(embRead)), "us", len(cliRead), 50)
	if len(cliWrite) > 0 && len(embWrite) > 0 {
		res.setN("write_p50_ms", median(cliWrite), "ms", len(cliWrite), 50)
		res.setN("server.write_overhead_us", 1e3*(median(cliWrite)-median(embWrite)), "us", len(cliWrite), 50)
	}
	probeGroupCommit(res, env, rc.p.traceOps/4)
	probeRows(res, streamed, rc.p.probeN)
	probePing(res, env.clis[0], rc.p.probeN)
	reportWorlds(res, env.db.Store())
	finishWire(res, env)
	return res, finishTrace(rc, res, tr, start)
}

// batchTarget reaches an embedded database through ExecBatch, the call the
// server makes for a client's write.
type batchTarget struct{ db *beliefdb.DB }

func (t batchTarget) query(text string) ([][]val.Value, error) { return dbTarget(t).query(text) }

func (t batchTarget) exec(text string) (int, error) {
	br, err := t.db.ExecBatch(text + ";")
	return br.Changed, err
}

// probeGroupCommit has both clients insert at once and reports how many
// fsyncs a commit cost: below 1 when the coalescer shared rounds.
func probeGroupCommit(res *result, env *wireEnv, n int) {
	n = max(n, 2)
	inserts := make([][]op, len(env.clis))
	for i := 0; i < n; i++ {
		c := i % len(inserts)
		inserts[c] = append(inserts[c], env.writes.insert())
	}
	syncs0 := env.db.WALSyncs()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := range inserts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, o := range inserts[c] {
				err := doWrite(cliTarget{env.clis[c]}, o)
				mu.Lock()
				res.check(err == nil, "concurrent insert: %v", err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.setN("wal.fsyncs_per_commit", float64(env.db.WALSyncs()-syncs0)/float64(n), "ratio", n, 0)
}

// ---- sharded-scatter -----------------------------------------------------

// splitByOwner renders a multi-row INSERT as the per-shard INSERTs the
// router would send, using the cluster's partition map.
func splitByOwner(m shard.Map, text string) (map[int]string, error) {
	stmt, err := bsql.Parse(text)
	if err != nil {
		return nil, err
	}
	ins, ok := stmt.(bsql.Insert)
	if !ok {
		return nil, fmt.Errorf("%q is not an INSERT", text)
	}
	byShard := map[int][][]sqlparser.Expr{}
	for _, row := range ins.Rows {
		lit, ok := row[0].(sqlparser.Literal)
		if !ok {
			return nil, fmt.Errorf("non-constant key in %q", text)
		}
		owner := m.Owner(ins.Target.Table, lit.Val)
		byShard[owner] = append(byShard[owner], row)
	}
	out := map[int]string{}
	for i, rows := range byShard {
		out[i] = bsql.Render(bsql.Insert{Target: ins.Target, Rows: rows})
	}
	return out, nil
}

func traceSharded(rc *runCtx) (*result, error) {
	res := newResult("sharded-scatter", true, rc.seed)
	blockOf := shardedBlock(rc.p.multiRow)
	var err error
	t0 := time.Now()
	env, err := setupSharded(rc)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.set("store.bulkload_s", time.Since(t0).Seconds(), "s")
	direct := make([]cliTarget, shardCount)
	for i := range direct {
		clis, err := dialClients(env.sc.Shard(i).PrimaryAddr(), 1)
		if err != nil {
			return nil, err
		}
		defer closeClients(clis)
		direct[i] = cliTarget{clis[0]}
	}
	smap := env.sc.Router().Map()

	var ops []op
	for len(ops) < 2*rc.p.traceOps { // twice the others', for enough of the 15% writes on each path
		ops = append(ops, blockOf(env.reads[0], env.writes)...)
	}
	tr, start := newTracer(), readRuntime()
	routed := cliTarget{env.clis[0]}
	shard0 := dbTarget{env.sc.Shard(0).PrimaryDB()}

	var routedRead, directRead, shard0Direct, shard0Emb, routedWrite, directWrite, hop []float64
	var untraced, traced time.Duration
	contacted, refused, writes := 0, 0, 0
	for i, o := range ops {
		if o.write {
			parts, err := splitByOwner(smap, o.text)
			if err != nil {
				res.check(false, "splitting %q: %v", o.text, err)
				continue
			}
			contacted += len(parts)
			if writes++; writes%2 == 1 {
				ms, err := timeOp(tr, "router.exec", i, func() error { return doWrite(routed, o) })
				routedWrite = append(routedWrite, ms)
				res.check(err == nil, "routed write: %v", err)
				continue
			}
			// The same kind of write sent straight to its owners, all at
			// once: what a router that cost nothing would take.
			var wg sync.WaitGroup
			var mu sync.Mutex
			changed := 0
			slowest, err := timeOp(tr, "shard.exec", i, func() error {
				var first error
				for s, text := range parts {
					wg.Add(1)
					go func(s int, text string) {
						defer wg.Done()
						n, err := direct[s].exec(text)
						mu.Lock()
						defer mu.Unlock()
						changed += n
						if err != nil && first == nil {
							first = fmt.Errorf("shard %d: %w", s, err)
						}
					}(s, text)
				}
				wg.Wait()
				return first
			})
			res.check(err == nil, "direct write: %v", err)
			res.check(changed == o.rows, "direct write changed %d statements, want %d", changed, o.rows)
			directWrite = append(directWrite, slowest)
			continue
		}
		contacted += shardCount // a read over the partitioned relation scatters to every shard

		// The router's hop, timed directly: render the parsed statement
		// back to text and parse it again, as each shard does.
		stmt, err := bsql.Parse(o.text)
		if err == nil {
			ms, rerr := timeOp(tr, "bsql.render_reparse", i, func() error {
				_, err := bsql.Parse(bsql.Render(stmt))
				return err
			})
			hop = append(hop, 1e3*ms)
			err = rerr
		}
		res.check(err == nil, "render and re-parse %q: %v", o.text, err)

		slowest := 0.0
		for s := range direct {
			t0 := time.Now()
			_, err := direct[s].query(o.text)
			ms := float64(time.Since(t0)) / 1e6
			slowest = max(slowest, ms)
			res.check(err == nil, "direct read on shard %d %q: %v", s, o.text, err)
			if s == 0 {
				shard0Direct = append(shard0Direct, ms)
			}
		}
		directRead = append(directRead, slowest)
		t0 := time.Now()
		_, err = shard0.query(o.text)
		shard0Emb = append(shard0Emb, float64(time.Since(t0))/1e6)
		res.check(err == nil, "embedded read on shard 0 %q: %v", o.text, err)

		plain := func() {
			t0 := time.Now()
			_, err := routed.query(o.text)
			untraced += time.Since(t0)
			if err != nil {
				refused++
			}
			res.check(err == nil, "routed read %q: %v", o.text, err)
		}
		spanned := func() {
			ms, err := timeOp(tr, "router.query", i, func() error { _, err := routed.query(o.text); return err })
			traced += time.Duration(ms * 1e6)
			routedRead = append(routedRead, ms)
			res.check(err == nil, "routed read %q: %v", o.text, err)
		}
		inTurn(i, plain, spanned)
	}
	res.set("trace.overhead_share", overheadShare([]time.Duration{traced}, []time.Duration{untraced}), "ratio")
	reportSpans(res, tr, nil)
	res.setN("bsql.render_reparse_us", median(hop), "us", len(hop), 50)
	res.setN("read_p50_ms", median(routedRead), "ms", len(routedRead), 50)
	res.setN("router.read_overhead_us", 1e3*(median(routedRead)-median(directRead)), "us", len(routedRead), 50)
	res.setN("server.read_overhead_us", 1e3*(median(shard0Direct)-median(shard0Emb)), "us", len(shard0Direct), 50)
	if len(routedWrite) > 0 && len(directWrite) > 0 {
		res.setN("write_p50_ms", median(routedWrite), "ms", len(routedWrite), 50)
		res.setN("router.write_overhead_us", 1e3*(median(routedWrite)-median(directWrite)), "us", len(routedWrite), 50)
	}
	res.setN("router.fanout", float64(contacted)/float64(len(ops)), "count", len(ops), 0)
	res.setN("router.refused_share", float64(refused)/float64(len(ops)), "ratio", len(ops), 0)

	// Partitioning itself: the cost of finding a key's owner, and how
	// evenly the rows fell.
	n := rc.p.probeN
	t0 = time.Now()
	for i := 0; i < n; i++ {
		smap.Owner(relName, val.Str(fmt.Sprintf("k%d", i%env.data.cfg.KeyPool)))
	}
	res.setN("shard.owner_ns", float64(time.Since(t0))/float64(n), "ns", n, 0)
	rows, _, perShard := env.stats()
	most := 0
	for _, r := range perShard {
		most = max(most, r)
	}
	res.set("shard.balance", float64(most)*float64(len(perShard))/float64(rows), "ratio")
	res.set("store.worlds", float64(env.sc.Shard(0).PrimaryDB().Stats().States), "count")
	probePing(res, env.clis[0], rc.p.probeN)
	finishSharded(res, rc, env)
	return res, finishTrace(rc, res, tr, start)
}
