package main

import (
	"fmt"
	"time"

	"beliefdb"
	"beliefdb/internal/core"
)

// A workload is one set of inputs the benchmark runs. All five are closed
// loops: curators and their tools wait for each reply before sending the
// next request.
type workload struct {
	name string
	// why says which layers do the work, which is why the workload exists.
	why   string
	run   func(rc *runCtx) (*result, error) // untraced: end-to-end metrics
	trace func(rc *runCtx) (*result, error) // traced: per-layer metrics
}

var workloads = []workload{
	{
		name: "analytic-read",
		why:  "seven Sect. 6.2 queries over an embedded store: query and engine do over 99% of the work, the front end microseconds, store/wal/wire/router nothing",
		run:  runAnalytic, trace: traceAnalytic,
	},
	{
		name: "point-read",
		why:  "keyed one-row lookups on the same store by 2 clients: the answer is one row, so front end, plan choice and access path set the cost; must leave analytic-read unmoved",
		run:  runPoint, trace: tracePoint,
	},
	{
		name: "curate-durable",
		why:  "single-statement durable commits (85% INSERT, 10% DELETE, 5% UPDATE) beside a reader: bsql target matching, store reconciliation, wal fsync, MVCC publish, snapshot, recovery",
		run:  runCurate, trace: traceCurate,
	},
	{
		name: "wire-mixed",
		why:  "point-read's engine work behind a loopback server plus streamed rows and group-committed inserts: wire framing, row encode/decode, server, client, coalescer",
		run:  runWire, trace: traceWire,
	},
	{
		name: "sharded-scatter",
		why:  "wire-mixed's wire path plus a router over 2 shards: parse, render, shard re-parse, scatter and merge; minus wire-mixed it attributes the router",
		run:  runSharded, trace: traceSharded,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fingerprintOps is how many ops per client the input fingerprint covers.
const fingerprintOps = 200

// inputFingerprint hashes what a workload's generators produce for the
// run's seed and sizes: the dataset and the first ops of every client's
// stream, drawn from fresh generators so the run's own are not disturbed.
func inputFingerprint(rc *runCtx, workload string) (string, error) {
	switch workload {
	case "analytic-read", "point-read":
		data, err := build(dRead, rc.p.nRead)
		if err != nil {
			return "", err
		}
		if workload == "analytic-read" {
			var ops []op
			for next := analyticPasses(rc.seed); len(ops) < fingerprintOps; {
				ops = append(ops, next()...)
			}
			return fingerprint(data.stmts, ops), nil
		}
		var ops []op
		for c := 0; c < readClients; c++ {
			ops = append(ops, pointSample(clientSeed(rc.seed, c), data)...)
		}
		return fingerprint(data.stmts, ops), nil
	case "curate-durable":
		return curateFingerprint(rc)
	case "wire-mixed":
		return mixedFingerprint(rc, wireBlock)
	case "sharded-scatter":
		return mixedFingerprint(rc, shardedBlock(rc.p.multiRow))
	}
	return "", fmt.Errorf("unknown workload %q", workload)
}

// doRead runs a read and, when memo is set (read-only workloads), checks
// that its row count never changes.
func doRead(t target, o op, memo *rowMemo) error {
	rows, err := t.query(o.text)
	if err != nil {
		return err
	}
	if memo != nil {
		return memo.check(o.text, len(rows))
	}
	return nil
}

// doWrite runs a write and checks that it took effect on as many
// statements as it carried.
func doWrite(t target, o op) error {
	n, err := t.exec(o.text)
	if err != nil {
		return err
	}
	if n != o.rows {
		return fmt.Errorf("%q affected %d statements, want %d", o.text, n, o.rows)
	}
	return nil
}

func doOp(t target, o op, memo *rowMemo) error {
	if o.write {
		return doWrite(t, o)
	}
	return doRead(t, o, memo)
}

// reportSetup records what every untraced run knows once it is set up: the
// median set-up time, and the heap that stays live after a collection.
func reportSetup(res *result, seconds float64) {
	res.set("setup_s", seconds, "s")
	res.set("heap_live_mb", liveHeapMB(), "MB")
}

// finishStore reports the size metrics of an embedded store at the end of
// a run.
func finishStore(res *result, db *beliefdb.DB) {
	st := db.Stats()
	res.setN("overhead_ratio", st.Overhead(), "ratio", st.Annotations, 0)
}

// ---- analytic-read -------------------------------------------------------

func analyticSample(int64, built) []op { return analyticOps() }

// readEnv is the D-read dataset in an embedded in-memory database.
type readEnv struct {
	*embedded
	data built
}

func setupRead(rc *runCtx) (*readEnv, error) {
	data, err := build(dRead, rc.p.nRead)
	if err != nil {
		return nil, err
	}
	e, err := openMemory(data)
	if err != nil {
		return nil, err
	}
	return &readEnv{embedded: e, data: data}, nil
}

func runAnalytic(rc *runCtx) (*result, error) {
	res := newResult("analytic-read", false, rc.seed)
	env, setupS, err := setupMedian(rc.p.setups, func() (*readEnv, error) { return setupRead(rc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	reportSetup(res, setupS)
	ops := analyticOps()

	if err := checkMiniature(res, rc, dRead, analyticSample); err != nil {
		return nil, err
	}
	t := dbTarget{env.db}
	// The seven texts are few enough to check against the oracle at full
	// size too.
	checkReads(res, t, env.data.base, ops, "full size")

	memo := newRowMemo()
	next := analyticPasses(rc.seed)
	var m measurement
	// The base unit is one pass over the seven queries.
	m.loop(rc, res, func(k int) slice {
		var passes []op
		for i := 0; i < k; i++ {
			passes = append(passes, next()...)
		}
		return slice{clients: []opSource{fixed(passes)}, do: func(_ int, o op) error { return doRead(t, o, memo) }}
	})
	m.report(res)
	finishStore(res, env.db)
	return res, nil
}

// ---- point-read ----------------------------------------------------------

// readClients is the client count of every concurrent workload: the box
// has 2 cores, and in-process servers share them with the clients.
const readClients = 2

func pointSample(seed int64, data built) []op {
	m := newReadMix(seed, data)
	out := make([]op, fingerprintOps)
	for i := range out {
		out[i] = m.point()
	}
	return out
}

// clientSeed derives one client's op stream seed from the run's seed.
func clientSeed(seed int64, client int) int64 { return seed*31 + int64(client) + 1 }

func runPoint(rc *runCtx) (*result, error) {
	res := newResult("point-read", false, rc.seed)
	env, setupS, err := setupMedian(rc.p.setups, func() (*readEnv, error) { return setupRead(rc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	reportSetup(res, setupS)

	if err := checkMiniature(res, rc, dRead, pointSample); err != nil {
		return nil, err
	}
	t := dbTarget{env.db}
	memo := newRowMemo()
	mixes := make([]*readMix, readClients)
	for c := range mixes {
		mixes[c] = newReadMix(clientSeed(rc.seed, c), env.data)
	}
	var m measurement
	m.loop(rc, res, func(k int) slice {
		s := slice{do: func(_ int, o op) error { return doRead(t, o, memo) }}
		for c := range mixes {
			ops := make([]op, k*rc.p.sliceOps)
			for i := range ops {
				ops[i] = mixes[c].point()
			}
			s.clients = append(s.clients, fixed(ops))
		}
		return s
	})
	m.report(res)
	finishStore(res, env.db)
	return res, nil
}

// ---- curate-durable ------------------------------------------------------

// curateBlockOps is the size of one block of the write mix.
const curateBlockOps = 20

// curateBlock is one block of the write mix: of 20 commits 17 INSERT, 2
// DELETE an earlier statement and 1 UPDATEs one (85% / 10% / 5%).
func curateBlock(w *writeMix) []op {
	var out []op
	for _, kind := range block(w.r, 17, 2, 1) {
		switch kind {
		case 0:
			out = append(out, w.insert())
		case 1:
			out = append(out, w.delete())
		default:
			out = append(out, w.update())
		}
	}
	return out
}

// curateRead is the reader's query: a depth-1 content query.
func curateRead(m *readMix) op {
	return readOp("content", readSpec{kind: kContent, path: m.path(1), cols: []int{colSid, colSpecies}, eqCol: -1})
}

func curateSample(seed int64, data built) []op {
	m := newReadMix(seed, data)
	out := make([]op, 40)
	for i := range out {
		out[i] = curateRead(m)
	}
	return out
}

// curateEnv is a durable store preloaded with D-write statements, with the
// generators that continue its traffic.
type curateEnv struct {
	*embedded
	data   built
	writes *writeMix
	reads  *readMix
}

// curateTraffic builds the dataset and the generators of its traffic.
func curateTraffic(rc *runCtx) (built, *writeMix, *readMix, error) {
	data, err := build(dWrite, rc.p.nPreload)
	if err != nil {
		return built{}, nil, nil, err
	}
	writes, err := newWriteMix(clientSeed(rc.seed, 0), data, append([]core.Statement(nil), data.stmts...))
	if err != nil {
		return built{}, nil, nil, err
	}
	return data, writes, newReadMix(clientSeed(rc.seed, 1), data), nil
}

func setupCurate(rc *runCtx) (*curateEnv, error) {
	data, writes, reads, err := curateTraffic(rc)
	if err != nil {
		return nil, err
	}
	e, err := openDurable(rc, data, rc.p.batch)
	if err != nil {
		return nil, err
	}
	return &curateEnv{embedded: e, data: data, writes: writes, reads: reads}, nil
}

// slice builds k blocks of commits for the writer and, beside them, a
// reader that issues one query per acknowledged commit: one curator writes
// while another reads (MVCC read-under-write), each waiting only for their
// own replies. The one-to-one pace keeps the op mix — and with it every
// per-op cost — the same from run to run, and keeps the writer the
// bottleneck whether a commit takes a millisecond (INSERT) or a quarter of
// a second (DELETE and UPDATE, at this commit): the reader's wait for its
// release is outside its timing.
func (e *curateEnv) slice(k int, t target) slice {
	var commits []op
	for i := 0; i < k; i++ {
		commits = append(commits, curateBlock(e.writes)...)
	}
	release := make(chan struct{}, len(commits)) // one slot per commit: releasing never blocks the writer
	next := 0
	return slice{
		clients: []opSource{
			func() (op, bool) { // the writer; asking for the next op means the previous commit is acknowledged
				if next > 0 {
					release <- struct{}{}
				}
				if next == len(commits) {
					close(release)
					return op{}, false
				}
				next++
				return commits[next-1], true
			},
			func() (op, bool) {
				if _, ok := <-release; !ok {
					return op{}, false
				}
				return curateRead(e.reads), true
			},
		},
		do:    func(_ int, o op) error { return doOp(t, o, nil) },
		count: func(o op) bool { return o.write },
	}
}

// curateFingerprint hashes the dataset and the first ops of a fresh copy
// of the traffic generators.
func curateFingerprint(rc *runCtx) (string, error) {
	data, w, r, err := curateTraffic(rc)
	if err != nil {
		return "", err
	}
	var ops []op
	for i := 0; i < fingerprintOps/curateBlockOps; i++ {
		ops = append(ops, curateBlock(w)...)
		ops = append(ops, curateRead(r))
	}
	return fingerprint(data.stmts, ops), nil
}

func runCurate(rc *runCtx) (*result, error) {
	res := newResult("curate-durable", false, rc.seed)
	env, setupS, err := setupMedian(rc.p.setups, func() (*curateEnv, error) { return setupCurate(rc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	reportSetup(res, setupS)
	if err := checkMiniature(res, rc, dWrite, curateSample); err != nil {
		return nil, err
	}

	t := dbTarget{env.db}
	var m measurement
	var ckpt chan error
	m.loop(rc, res, func(k int) slice {
		if ckpt == nil && m.slices > 0 && m.elapsed() >= rc.seconds/2 {
			// Half the run ends up in the snapshot and half in the WAL
			// tail. The checkpoint runs beside the commits, as an
			// operator's would; the commit it stalls shows in the tail.
			ckpt = make(chan error, 1)
			go func() { ckpt <- env.db.Checkpoint() }()
		}
		return env.slice(k, t)
	})
	if ckpt != nil {
		res.check(<-ckpt == nil, "checkpoint failed")
	}
	m.report(res)
	finishStore(res, env.db)
	finishCurate(res, env)
	return res, nil
}

// finishCurate closes the store, reopens it and checks that every
// acknowledged write survived: the reopened database dumps exactly what it
// dumped before Close, and its statements are the reference base's.
func finishCurate(res *result, env *curateEnv) {
	before, err := env.db.Dump()
	res.check(err == nil, "dump before close: %v", err)
	res.check(env.db.Close() == nil, "close failed")
	bytes, err := storeBytes(env.dir)
	res.check(err == nil, "sizing %s: %v", env.dir, err)
	res.setN("disk_bytes_per_stmt", float64(bytes)/float64(env.data.base.Len()), "B", env.data.base.Len(), 0)

	t0 := time.Now()
	db, err := beliefdb.OpenAt(env.dir, schema())
	if err != nil {
		res.check(false, "reopen: %v", err)
		return
	}
	env.db = db
	_, qerr := db.Query(curateRead(env.reads).text)
	res.set("recover_s", time.Since(t0).Seconds(), "s")
	res.check(qerr == nil, "first query after reopen: %v", qerr)

	after, err := db.Dump()
	res.check(err == nil && after == before, "dump after reopen differs from dump before close (err=%v)", err)
	stmts, err := db.Statements()
	res.check(err == nil && statementSet(stmts) == statementSet(env.data.base.Statements()),
		"statements after reopen differ from the reference belief base (err=%v)", err)
}
