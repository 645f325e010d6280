package main

import (
	"context"
	"strings"

	"beliefdb/internal/core"
)

// loadBatch is the script size of the wire-mixed set-up load. The served
// store is loaded embedded, before the server starts, and nothing about
// the workload depends on the load's batching; large scripts keep three
// set-ups per run affordable (64-statement scripts take twice as long,
// almost all of it snapshot publication).
const loadBatch = 1024

// mixedEnv is a loaded deployment (server or cluster) with the generators
// that continue its traffic: one read stream per client and one shared
// write stream, dealt to the clients in turn.
type mixedEnv struct {
	data   built
	reads  []*readMix
	writes *writeMix
}

func newMixedEnv(rc *runCtx, data built) (*mixedEnv, error) {
	writes, err := newWriteMix(clientSeed(rc.seed, readClients), data, nil)
	if err != nil {
		return nil, err
	}
	e := &mixedEnv{data: data, writes: writes}
	for c := 0; c < readClients; c++ {
		e.reads = append(e.reads, newReadMix(clientSeed(rc.seed, c), data))
	}
	return e, nil
}

// slice builds one slice of n blocks per client; blockOf draws a block.
func (e *mixedEnv) slice(n int, blockOf func(r *readMix, w *writeMix) []op, do func(int, op) error) slice {
	s := slice{do: do}
	for c := range e.reads {
		var ops []op
		for i := 0; i < n; i++ {
			ops = append(ops, blockOf(e.reads[c], e.writes)...)
		}
		s.clients = append(s.clients, fixed(ops))
	}
	return s
}

// mixedFingerprint hashes the dataset and the first ops of a fresh copy of
// the traffic generators.
func mixedFingerprint(rc *runCtx, blockOf func(r *readMix, w *writeMix) []op) (string, error) {
	data, err := build(dRead, rc.p.nRead)
	if err != nil {
		return "", err
	}
	m, err := newMixedEnv(rc, data)
	if err != nil {
		return "", err
	}
	var ops []op
	for c := range m.reads {
		for len(ops) < (c+1)*fingerprintOps {
			ops = append(ops, blockOf(m.reads[c], m.writes)...)
		}
	}
	return fingerprint(data.stmts, ops), nil
}

// ---- wire-mixed ----------------------------------------------------------

// wireBlockOps is the size of one block of the wire-mixed traffic.
const wireBlockOps = 10

// wireBlock draws the wire-mixed traffic: of 10 ops 5 point lookups, 3
// depth-1 content queries filtered by location (hundreds of rows streamed
// back) and 2 single-statement INSERTs.
func wireBlock(r *readMix, w *writeMix) []op {
	var out []op
	for _, kind := range block(r.r, 5, 3, 2) {
		switch kind {
		case 0:
			out = append(out, r.point())
		case 1:
			out = append(out, r.location())
		default:
			out = append(out, w.insert())
		}
	}
	return out
}

func wireSample(seed int64, data built) []op {
	m := newReadMix(seed, data)
	var out []op
	for i := 0; i < fingerprintOps; i++ {
		if i%3 == 0 {
			out = append(out, m.location())
		} else {
			out = append(out, m.point())
		}
	}
	return out
}

type wireEnv struct {
	*served
	*mixedEnv
}

func setupWire(rc *runCtx) (*wireEnv, error) {
	data, err := build(dRead, rc.p.nRead)
	if err != nil {
		return nil, err
	}
	e, err := openDurable(rc, data, loadBatch)
	if err != nil {
		return nil, err
	}
	// Start from a checkpoint, as a deployed server would after a bulk
	// import: the snapshot holds the dataset and the WAL only the run.
	if err := e.db.Checkpoint(); err != nil {
		e.close()
		return nil, err
	}
	s, err := serve(e, readClients)
	if err != nil {
		e.close()
		return nil, err
	}
	m, err := newMixedEnv(rc, data)
	if err != nil {
		s.close()
		return nil, err
	}
	return &wireEnv{served: s, mixedEnv: m}, nil
}

func runWire(rc *runCtx) (*result, error) {
	res := newResult("wire-mixed", false, rc.seed)
	env, setupS, err := setupMedian(rc.p.setups, func() (*wireEnv, error) { return setupWire(rc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	reportSetup(res, setupS)
	if err := checkMiniature(res, rc, dRead, wireSample); err != nil {
		return nil, err
	}

	do := func(c int, o op) error { return doOp(cliTarget{env.clis[c]}, o, nil) }
	var m measurement
	m.loop(rc, res, func(k int) slice { return env.slice(k*max(rc.p.sliceOps/wireBlockOps, 1), wireBlock, do) })
	m.report(res)
	finishStore(res, env.db)
	finishWire(res, env)
	return res, nil
}

// finishWire checks that the store holds every acknowledged insert and
// nothing else, shuts down and sizes the store.
func finishWire(res *result, env *wireEnv) {
	stmts, err := env.db.Statements()
	res.check(err == nil && statementSet(stmts) == statementSet(env.data.base.Statements()),
		"statements after the run differ from the reference belief base (err=%v)", err)
	res.check(env.stop() == nil, "server shutdown failed")
	res.check(env.db.Close() == nil, "close failed")
	bytes, err := storeBytes(env.dir)
	res.check(err == nil, "sizing the store: %v", err)
	res.setN("disk_bytes_per_stmt", float64(bytes)/float64(env.data.base.Len()), "B", env.data.base.Len(), 0)
}

// ---- sharded-scatter -----------------------------------------------------

// shardedBlockOps is the size of one block of the routed traffic.
const shardedBlockOps = 20

// shardedBlock draws the routed traffic: of 20 ops 8 point lookups, 4
// whole-world reads (concatenate and dedup across shards), 3 GROUP BY
// counts (partial aggregates recombined), 2 ORDER BY ... LIMIT (top-k
// merged again) and 3 multi-row INSERTs the router splits by owning shard.
func shardedBlock(multiRow int) func(r *readMix, w *writeMix) []op {
	return func(r *readMix, w *writeMix) []op {
		var out []op
		for _, kind := range block(r.r, 8, 4, 3, 2, 3) {
			switch kind {
			case 0:
				out = append(out, r.point())
			case 1:
				out = append(out, r.world())
			case 2:
				out = append(out, r.group())
			case 3:
				out = append(out, r.topk())
			default:
				out = append(out, w.multiInsert(multiRow))
			}
		}
		return out
	}
}

func shardedSample(seed int64, data built) []op {
	m := newReadMix(seed, data)
	var out []op
	for i := 0; i < fingerprintOps/4; i++ {
		out = append(out, m.point(), m.world(), m.group(), m.topk())
	}
	return out
}

type shardedEnv struct {
	*sharded
	*mixedEnv
}

func setupSharded(rc *runCtx) (*shardedEnv, error) {
	data, err := build(dRead, rc.p.nRead)
	if err != nil {
		return nil, err
	}
	s, err := startSharded(rc, data, rc.p.batch, readClients)
	if err != nil {
		return nil, err
	}
	m, err := newMixedEnv(rc, data)
	if err != nil {
		s.close()
		return nil, err
	}
	return &shardedEnv{sharded: s, mixedEnv: m}, nil
}

// flushPending sends the rows still waiting in multi-row buckets, so the
// cluster holds exactly the reference base's statements.
func (e *shardedEnv) flushPending() error {
	rest := e.writes.drain()
	if len(rest) == 0 {
		return nil
	}
	parts := make([]string, len(rest))
	for i, s := range rest {
		parts[i] = renderInsert(s)
	}
	_, err := e.clis[0].ExecBatch(context.Background(), strings.Join(parts, ";\n")+";")
	return err
}

func runSharded(rc *runCtx) (*result, error) {
	res := newResult("sharded-scatter", false, rc.seed)
	env, setupS, err := setupMedian(rc.p.setups, func() (*shardedEnv, error) { return setupSharded(rc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	reportSetup(res, setupS)
	blockOf := shardedBlock(rc.p.multiRow)
	if err := checkMiniature(res, rc, dRead, shardedSample); err != nil {
		return nil, err
	}

	do := func(c int, o op) error { return doOp(cliTarget{env.clis[c]}, o, nil) }
	var m measurement
	m.loop(rc, res, func(k int) slice { return env.slice(k*max(rc.p.sliceOps/shardedBlockOps, 1), blockOf, do) })
	m.report(res)
	finishSharded(res, rc, env)
	return res, nil
}

// finishSharded checks the cluster against the reference base — the shards
// together hold its statements, and routed answers are the oracle's, which
// is what a single node holding the same statements answers — and reports
// the size metrics.
func finishSharded(res *result, rc *runCtx, env *shardedEnv) {
	res.check(env.flushPending() == nil, "flushing pending rows failed")
	var all []core.Statement
	for i := 0; i < shardCount; i++ {
		stmts, err := env.sc.Shard(i).PrimaryDB().Statements()
		res.check(err == nil, "shard %d statements: %v", i, err)
		all = append(all, stmts...)
	}
	res.check(statementSet(all) == statementSet(env.data.base.Statements()),
		"the shards' statements differ from the reference belief base")
	sample := shardedSample(clientSeed(rc.seed, 7), env.data)
	checkReads(res, cliTarget{env.clis[0]}, env.data.base, sample[:min(len(sample), 24)], "routed")

	rows, annotations, _ := env.stats()
	res.setN("overhead_ratio", float64(rows)/float64(annotations), "ratio", annotations, 0)
	res.check(env.stop() == nil, "cluster shutdown failed")
	bytes, err := storeBytes(env.root)
	res.check(err == nil, "sizing the cluster: %v", err)
	res.setN("disk_bytes_per_stmt", float64(bytes)/float64(env.data.base.Len()), "B", env.data.base.Len(), 0)
}
