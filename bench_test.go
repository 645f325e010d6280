package beliefdb_test

// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure (scaled-down parameters; cmd/beliefbench -full runs the
// paper-scale versions), plus operation-level micro-benchmarks.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"strings"
	"testing"

	"beliefdb"
	"beliefdb/internal/bench"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/kripke"
)

// BenchmarkTable1 regenerates the relative-overhead grid of Table 1.
// The reported metric overhead/* mirrors the table cells.
func BenchmarkTable1(b *testing.B) {
	cfg := bench.Table1Config{N: 500, Reps: 1, Seed: 1, Users: []int{10, 30}}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range res.Cells {
				b.ReportMetric(c.Overhead, fmt.Sprintf("ovh-m%d-%s-d%.0f", c.Users, c.Participation, c.DepthDist[0]*100))
			}
		}
	}
}

// BenchmarkFigure6 regenerates the overhead-vs-n series of Figure 6.
func BenchmarkFigure6(b *testing.B) {
	cfg := bench.Figure6Config{Ns: []int{10, 100, 500}, Users: 30, Reps: 1, Seed: 2}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for si, s := range res.Series {
				for j, n := range cfg.Ns {
					b.ReportMetric(s.Overheads[j], fmt.Sprintf("ovh-s%d-n%d", si, n))
				}
			}
		}
	}
}

// BenchmarkTable2 regenerates the query-latency rows of Table 2 (content
// queries q1,0..q1,4, conflict query q2, user query q3).
func BenchmarkTable2(b *testing.B) {
	cfg := bench.Table2Config{N: 1000, Users: 10, QueryReps: 3, Seed: 3}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res.Rows {
				b.ReportMetric(float64(r.Mean)/1e6, "ms-"+r.Name)
			}
		}
	}
}

// BenchmarkSpaceBounds regenerates the Sect. 5.4 size-bound ablation.
func BenchmarkSpaceBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunSpaceBounds(300, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.ERows), fmt.Sprintf("E-dmax%d", r.MaxDepth))
			}
		}
	}
}

// --- operation micro-benchmarks ---

func benchDB(b testing.TB, n, m int) *beliefdb.DB {
	b.Helper()
	db, err := beliefdb.Open(beliefdb.Schema{Relations: []beliefdb.Relation{benchRelation()}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= m; i++ {
		if _, err := db.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	g, err := gen.New(gen.Config{
		Users: m, DepthDist: []float64{0.4, 0.4, 0.15, 0.05},
		Participation: gen.Zipf, KeyPool: n/4 + 8, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := g.Load(n, func(st core.Statement) (bool, error) {
		return db.InsertBelief(st.Path, st.Sign, st.Tuple)
	}); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchRelation() beliefdb.Relation {
	cols := make([]beliefdb.Column, 0, 5)
	for _, c := range gen.RelColumns() {
		cols = append(cols, beliefdb.Column{Name: c, Type: beliefdb.KindString})
	}
	return beliefdb.Relation{Name: gen.DefaultRel, Columns: cols}
}

// BenchmarkInsertRoot measures plain content inserts (depth 0), which
// propagate to every world.
func BenchmarkInsertRoot(b *testing.B) {
	db := benchDB(b, 500, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ := db.NewTuple(gen.DefaultRel,
			fmt.Sprintf("bk%d", i), "obs", "species-x", "6-14-08", "loc")
		if _, err := db.InsertBelief(nil, beliefdb.Pos, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertDepth2 measures higher-order annotation inserts.
func BenchmarkInsertDepth2(b *testing.B) {
	db := benchDB(b, 500, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ := db.NewTuple(gen.DefaultRel,
			fmt.Sprintf("bk%d", i), "obs", "species-x", "6-14-08", "loc")
		if _, err := db.InsertBelief(beliefdb.Path{1, 2}, beliefdb.Pos, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalytic runs the seven Sect. 6.2 queries of the analytic-read
// workload (q1 at depths 0 to 4 along u1·u2·u1·u2, q2, q3), one
// sub-benchmark each, on one store.
func BenchmarkAnalytic(b *testing.B) {
	db := benchDB(b, 1000, 10)
	for _, q := range bench.Table2Queries() {
		b.Run(strings.ReplaceAll(q.Name, ",", "_"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestQueryAllocs bounds the allocations of a whole DB.Query — parse,
// translate, plan, run — for the point lookup and both negated shapes: the
// q2 conflict query and analytic-read's q3. A translated query reaches the
// executor as an AST; rendering it to text and parsing that again would put
// the point read over its bound.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db := benchDB(t, 1000, 10)
	var q3 string
	for _, q := range bench.Table2Queries() {
		if q.Name == "q3" {
			q3 = q.Query
		}
	}
	for _, c := range []struct {
		name, q string
		max     float64
	}{
		{"point", pointQuery, 110},
		{"q2", conflictQuery, 440},
		{"q3", q3, 415},
	} {
		got := testing.AllocsPerRun(50, func() {
			if _, err := db.Query(c.q); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations per query, want at most %.0f", c.name, got, c.max)
		}
	}
}

// BenchmarkQueryContent measures the q1-style content query.
func BenchmarkQueryContent(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := fmt.Sprintf("select T.sid, T.species from BELIEF 'u1' %s T", gen.DefaultRel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryContentParallel runs the q1-style content query from
// b.RunParallel goroutines. Under MVCC snapshot reads SELECTs take no lock
// at all, so on multi-core hardware ns/op drops roughly with the core
// count relative to BenchmarkQueryContent; under the old single-mutex
// model the two benchmarks coincide.
func BenchmarkQueryContentParallel(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := fmt.Sprintf("select T.sid, T.species from BELIEF 'u1' %s T", gen.DefaultRel)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryContentParallelUnderIngest is BenchmarkQueryContentParallel
// with a writer streaming 16-statement insert batches the whole time. Under
// MVCC snapshot reads the queries resolve against published epochs and
// never wait on the writer lock, so ns/op stays near the writer-idle
// parallel number; under the old reader-writer mutex every batch commit
// stalled all readers and throughput collapsed. This benchmark is the
// speed proof for the snapshot-read model; the repository benchmark tracks
// the same effect as store.read_under_write_ratio on curate-durable.
func BenchmarkQueryContentParallelUnderIngest(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := fmt.Sprintf("select T.sid, T.species from BELIEF 'u1' %s T", gen.DefaultRel)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := db.Batch(func(batch *beliefdb.Batch) error {
				for j := 0; j < 16; j++ {
					t, err := db.NewTuple(gen.DefaultRel,
						fmt.Sprintf("ing%d-%d", i, j), "obs", "species-x", "6-14-08", "loc")
					if err != nil {
						return err
					}
					batch.Insert(nil, beliefdb.Pos, t)
				}
				return nil
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// conflictQuery is the q2-style conflict query: what u2 believes u1
// believes that u2 does not believe.
var conflictQuery = fmt.Sprintf(`select T1.sid, T1.species
		from BELIEF 'u2' BELIEF 'u1' %[1]s T1, BELIEF 'u2' not %[1]s T2
		where T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
		and T2.date = T1.date and T2.location = T1.location`, gen.DefaultRel)

// BenchmarkQueryConflict measures the q2-style conflict query.
func BenchmarkQueryConflict(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := conflictQuery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryConflictParallel is the parallel variant of the q2-style
// conflict query (see BenchmarkQueryContentParallel).
func BenchmarkQueryConflictParallel(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := conflictQuery
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryUsers measures the q3-style user query (path variable in a
// negative subgoal).
func BenchmarkQueryUsers(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := fmt.Sprintf(`select U.uid
		from Users U, BELIEF 'u1' %[1]s T1, BELIEF U.uid not %[1]s T2
		where T1.location = 'loc1'
		and T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
		and T2.date = T1.date and T2.location = T1.location`, gen.DefaultRel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// pointQuery is a depth-1 key lookup with a one-row answer.
var pointQuery = fmt.Sprintf("select T.species from BELIEF 'u1' %s T where T.sid = 'k7'", gen.DefaultRel)

// BenchmarkQueryPoint measures a depth-1 key lookup: a one-row answer,
// whose cost is the front end, the plan choice and the access path. B/op
// shows what a per-query output buffer costs such an answer.
func BenchmarkQueryPoint(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := pointQuery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no row for key k7")
		}
	}
}

// BenchmarkQueryGroup measures a depth-1 GROUP BY count: one belief world
// folded into a group per observer.
func BenchmarkQueryGroup(b *testing.B) {
	db := benchDB(b, 1000, 10)
	q := fmt.Sprintf("select T.observer, count(T.sid) from BELIEF 'u1' %s T group by T.observer", gen.DefaultRel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate measures BeliefSQL -> SQL translation alone.
func BenchmarkTranslate(b *testing.B) {
	db := benchDB(b, 100, 10)
	q := fmt.Sprintf(`select T1.sid from BELIEF 'u2' BELIEF 'u1' %[1]s T1, BELIEF 'u2' not %[1]s T2
		where T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
		and T2.date = T1.date and T2.location = T1.location`, gen.DefaultRel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Translate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKripkeBuild measures canonical-structure construction
// (Theorem 17's O(m^d n) step) from scratch.
func BenchmarkKripkeBuild(b *testing.B) {
	base, _, err := gen.Statements(gen.Config{
		Users: 10, DepthDist: []float64{0.4, 0.4, 0.2},
		Participation: gen.Zipf, KeyPool: 200, Seed: 7,
	}, 1000)
	if err != nil {
		b.Fatal(err)
	}
	users := make([]core.UserID, 10)
	for i := range users {
		users[i] = core.UserID(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kripke.Build(base, users).Len() == 0 {
			b.Fatal("empty structure")
		}
	}
}

// BenchmarkEntailment measures the typed Believes fast path.
func BenchmarkEntailment(b *testing.B) {
	db := benchDB(b, 1000, 10)
	t, _ := db.NewTuple(gen.DefaultRel, "k1", "obs1", "species0", "6-14-08", "loc1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Believes(beliefdb.Path{1, 2}, t); err != nil {
			b.Fatal(err)
		}
	}
}
