package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/replication"
	"beliefdb/internal/router"
	"beliefdb/internal/server"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// datasetSeed seeds the generator of both datasets, whatever the run's
// seed. The generator's output is heavy-tailed in exactly the property the
// costs depend on — a handful of deep statements decide how many belief
// worlds exist, and |R*|/n swings between 24 and 30 from one generator seed
// to the next — so datasets drawn from different seeds are different
// benchmarks, not repetitions of one. The run's seed drives the traffic:
// which users, keys and belief paths the reads ask for, which statements
// the deletes and updates pick, and the order of ops within each block.
const datasetSeed = 1

// built is a generated dataset: the accepted statements in generation
// order and the belief base that accepted them (the reference semantics).
type built struct {
	cfg   gen.Config
	base  *core.BeliefBase
	stmts []core.Statement
}

func build(d dataset, n int) (built, error) {
	cfg := d.config(datasetSeed, n)
	base, stmts, err := gen.Statements(cfg, n)
	return built{cfg: cfg, base: base, stmts: stmts}, err
}

// more returns a generator that continues the dataset's distribution with
// fresh draws (a different stream than the one that built it).
func (b built) more() (*gen.Generator, error) {
	cfg := b.cfg
	cfg.Seed = cfg.Seed*1000003 + 17
	return gen.New(cfg)
}

func addUsers(db *beliefdb.DB) error {
	for u := 1; u <= users; u++ {
		if _, err := db.AddUser(userName(u)); err != nil {
			return err
		}
	}
	return nil
}

// bulkLoad applies stmts through the store's loader path (one snapshot
// publication for the whole load).
func bulkLoad(db *beliefdb.DB, stmts []core.Statement) error {
	return db.Store().BulkLoad(func(insert func(core.Statement) (bool, error)) error {
		for _, s := range stmts {
			if changed, err := insert(s); err != nil || !changed {
				return fmt.Errorf("bulk load refused %s: changed=%v err=%v", s, changed, err)
			}
		}
		return nil
	})
}

// embedded is an in-process database, in memory or under dir.
type embedded struct {
	db  *beliefdb.DB
	dir string // "" for an in-memory database
}

func (e *embedded) close() error {
	err := e.db.Close()
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	e.db = nil
	return err
}

// openMemory builds an in-memory database holding the dataset.
func openMemory(b built) (*embedded, error) {
	db, err := beliefdb.Open(schema())
	if err != nil {
		return nil, err
	}
	if err := addUsers(db); err != nil {
		return nil, err
	}
	if err := bulkLoad(db, b.stmts); err != nil {
		return nil, err
	}
	return &embedded{db: db}, nil
}

// openDurable builds a durable database under a fresh directory, loading
// the dataset as ExecBatch scripts of batch statements: text in, one WAL
// commit (one fsync) per script.
func openDurable(rc *runCtx, b built, batch int) (*embedded, error) {
	dir, err := rc.tempDir("store")
	if err != nil {
		return nil, err
	}
	db, err := beliefdb.OpenAt(dir, schema())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &embedded{db: db, dir: dir}
	if err := addUsers(db); err != nil {
		e.close()
		return nil, err
	}
	for _, script := range batchScripts(b.stmts, batch) {
		if _, err := db.ExecBatch(script); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// dbTarget reaches an embedded database.
type dbTarget struct{ db *beliefdb.DB }

func (t dbTarget) query(text string) ([][]val.Value, error) {
	res, err := t.db.Query(text)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (t dbTarget) exec(text string) (int, error) {
	res, err := t.db.Exec(text)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// cliTarget reaches a server or the router over one connection. Writes go
// as ExecBatch: the server commits them through the group-commit coalescer
// and the router splits them by owning shard.
type cliTarget struct{ cli *client.Client }

func (t cliTarget) query(text string) ([][]val.Value, error) {
	res, err := t.cli.Query(context.Background(), text)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (t cliTarget) exec(text string) (int, error) {
	br, err := t.cli.ExecBatch(context.Background(), text+";")
	if err != nil {
		return 0, err
	}
	return br.Changed, nil
}

// dialClients opens n clients of one connection each.
func dialClients(addr string, n int) ([]*client.Client, error) {
	var out []*client.Client
	for i := 0; i < n; i++ {
		cli, err := client.Dial(addr, client.Options{PoolSize: 1})
		if err != nil {
			for _, c := range out {
				c.Close()
			}
			return nil, err
		}
		out = append(out, cli)
	}
	return out, nil
}

func closeClients(clis []*client.Client) {
	for _, c := range clis {
		c.Close()
	}
}

// served is a durable database behind an in-process server on loopback.
type served struct {
	*embedded
	srv      *server.Server
	addr     string
	serveErr chan error
	clis     []*client.Client
}

func serve(e *embedded, clients int) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{embedded: e, srv: server.New(e.db), addr: ln.Addr().String(), serveErr: make(chan error, 1)}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	if s.clis, err = dialClients(s.addr, clients); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and waits for it, leaving the database open.
func (s *served) stop() error {
	if s.srv == nil {
		return nil
	}
	closeClients(s.clis)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; err == nil {
		err = serr
	}
	s.srv = nil
	return err
}

func (s *served) close() error {
	err := s.stop()
	if cerr := s.embedded.close(); err == nil {
		err = cerr
	}
	return err
}

// shardCount is the number of shard primaries behind the router: one per
// core of the box, no replicas, no fault proxy.
const shardCount = 2

// sharded is a router in front of shardCount shard primaries, all in this
// process.
type sharded struct {
	sc   *replication.ShardedCluster
	root string
	clis []*client.Client
}

// startSharded brings the cluster up and loads the dataset through the
// router as ExecBatch scripts of batch single-row INSERTs.
func startSharded(rc *runCtx, b built, batch, clients int) (*sharded, error) {
	root, err := rc.tempDir("cluster")
	if err != nil {
		return nil, err
	}
	sc, err := replication.StartSharded(root, replication.ShardedConfig{
		Schema: schema(), Shards: shardCount, Seed: uint64(b.cfg.Seed),
		// One router connection per client to each shard, so neither pool
		// queues the other client's request.
		RouterOpts: []router.Option{router.WithClientOptions(client.Options{PoolSize: clients})},
	})
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	s := &sharded{sc: sc, root: root}
	if s.clis, err = dialClients(sc.Addr(), clients); err != nil {
		s.close()
		return nil, err
	}
	ctx := context.Background()
	for u := 1; u <= users; u++ {
		if _, err := s.clis[0].AddUser(ctx, userName(u)); err != nil {
			s.close()
			return nil, err
		}
	}
	for _, script := range batchScripts(b.stmts, batch) {
		if _, err := s.clis[0].ExecBatch(ctx, script); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// stop closes clients, router and shards but keeps the directories.
func (s *sharded) stop() error {
	if s.sc == nil {
		return nil
	}
	closeClients(s.clis)
	err := s.sc.Close()
	s.sc = nil
	return err
}

func (s *sharded) close() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.root); err == nil {
		err = rerr
	}
	return err
}

// stats sums the shards' representation sizes.
func (s *sharded) stats() (rows, annotations int, perShard []int) {
	for i := 0; i < shardCount; i++ {
		st := s.sc.Shard(i).PrimaryDB().Stats()
		rows += st.TotalRows
		annotations += st.Annotations
		perShard = append(perShard, st.TotalRows)
	}
	return rows, annotations, perShard
}

// storeBytes sums the snapshot and WAL files under a closed store's
// directory (or a closed cluster's root).
func storeBytes(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if name := info.Name(); !info.IsDir() && (name == store.SnapshotFileName || name == store.WALFileName) {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// statementSet renders explicit statements in a canonical order, for
// comparing a database's content with the reference belief base.
func statementSet(stmts []core.Statement) string {
	lines := make([]string, len(stmts))
	for i, s := range stmts {
		lines[i] = s.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkReads runs each distinct read of ops on t and compares the answer
// with the oracle's over base. Every comparison counts as an attempted op.
func checkReads(res *result, t target, base *core.BeliefBase, ops []op, what string) {
	seen := map[string]bool{}
	for _, o := range ops {
		if o.write || seen[o.text] {
			continue
		}
		seen[o.text] = true
		want, ordered, err := o.read.oracle(base)
		if err != nil {
			res.check(false, "%s: oracle for %q: %v", what, o.text, err)
			continue
		}
		got, err := t.query(o.text)
		if err != nil {
			res.check(false, "%s: %q: %v", what, o.text, err)
			continue
		}
		res.check(sameRows(got, want, ordered), "%s: %q answered %d rows, the oracle %d (or different rows)", what, o.text, len(got), len(want))
	}
}

// checkMiniature evaluates reads on a miniature of the dataset — small
// enough for core.Eval's naive backtracking on every distinct text —
// against the paper's semantics. sample draws the workload's read classes
// for the given dataset.
func checkMiniature(res *result, rc *runCtx, d dataset, sample func(seed int64, data built) []op) error {
	mini, err := build(d, rc.p.nMini)
	if err != nil {
		return err
	}
	e, err := openMemory(mini)
	if err != nil {
		return err
	}
	defer e.close()
	checkReads(res, dbTarget{e.db}, mini.base, sample(rc.seed, mini), "miniature")
	return nil
}
