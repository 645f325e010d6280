package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/engine"
)

// explainSteps runs EXPLAIN over sql and renders each recorded step as
// "access_path detail" for assertion.
func explainSteps(t *testing.T, cat *engine.Catalog, sql string) []string {
	t.Helper()
	res := exec(t, cat, "EXPLAIN "+sql)
	want := []string{"binding", "access_path", "detail", "rows"}
	if !reflect.DeepEqual(res.Columns, want) {
		t.Fatalf("EXPLAIN columns = %v, want %v", res.Columns, want)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		s := r[1].AsString()
		if d := r[2].AsString(); d != "" {
			s += " " + d
		}
		out = append(out, s)
	}
	return out
}

// planFixture builds a 100-row table with a hash index on a low-cardinality
// column, a hash index on a unique column, and an ordered index.
func planFixture(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE ev (id INT PRIMARY KEY, grp INT, uniq INT, ts INT);
		CREATE INDEX ev_grp ON ev (grp);
		CREATE INDEX ev_uniq ON ev (uniq);
		CREATE ORDERED INDEX ev_ts ON ev (ts);
	`)
	for i := 0; i < 100; i++ {
		exec(t, cat, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d, %d)", i, i%2, 1000+i, i))
	}
	return cat
}

func wantStep(t *testing.T, steps []string, substr string) {
	t.Helper()
	for _, s := range steps {
		if strings.Contains(s, substr) {
			return
		}
	}
	t.Fatalf("no EXPLAIN step contains %q: %v", substr, steps)
}

func TestExplainAccessPaths(t *testing.T) {
	cat := planFixture(t)

	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev"), "full scan")
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE id = 42"), "pk probe")
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE grp = 1"), "eq probe index=ev_grp")

	// A 10%-selective range on the ordered column beats a full scan.
	steps := explainSteps(t, cat, "SELECT * FROM ev WHERE ts >= 90")
	wantStep(t, steps, "range walk index=ev_ts")

	// An unselective range (covers every row) must fall back to the scan:
	// walking the whole tree costs more than the sequential pass.
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE ts >= 0"), "full scan")
}

// TestIndexSelectivityTieBreak is the regression test for the old bestIndex
// bug: with both ev_grp (2 distinct keys) and ev_uniq (100 distinct keys)
// applicable, the planner picked whichever the map iteration order yielded.
// The cost model must prefer the selective one.
func TestIndexSelectivityTieBreak(t *testing.T) {
	cat := planFixture(t)
	for i := 0; i < 20; i++ {
		steps := explainSteps(t, cat, "SELECT * FROM ev WHERE grp = 1 AND uniq = 1042")
		wantStep(t, steps, "index=ev_uniq")
		for _, s := range steps {
			if strings.Contains(s, "index=ev_grp") {
				t.Fatalf("planner chose low-cardinality index: %v", steps)
			}
		}
	}
}

func TestExplainOrderedWalk(t *testing.T) {
	cat := planFixture(t)

	steps := explainSteps(t, cat, "SELECT * FROM ev ORDER BY ts DESC LIMIT 5")
	wantStep(t, steps, "ordered walk index=ev_ts")
	wantStep(t, steps, "desc")
	wantStep(t, steps, "limit=5")

	// Range plus order, still one walk.
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev WHERE ts > 50 ORDER BY ts LIMIT 3"),
		"ordered walk index=ev_ts")

	// ORDER BY a column with no ordered index sorts after a normal path.
	wantStep(t, explainSteps(t, cat, "SELECT * FROM ev ORDER BY grp"), "full scan")
}

func TestOrderedWalkResults(t *testing.T) {
	cat := planFixture(t)

	res := exec(t, cat, "SELECT ts FROM ev WHERE ts > 50 ORDER BY ts DESC LIMIT 4")
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].AsInt())
	}
	if want := []int64{99, 98, 97, 96}; !reflect.DeepEqual(got, want) {
		t.Fatalf("top-k walk = %v, want %v", got, want)
	}

	// Residual filters still apply during the walk.
	res = exec(t, cat, "SELECT ts FROM ev WHERE grp = 0 ORDER BY ts LIMIT 3")
	got = nil
	for _, r := range res.Rows {
		got = append(got, r[0].AsInt())
	}
	if want := []int64{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered walk = %v, want %v", got, want)
	}
}

func TestExplainJoin(t *testing.T) {
	cat := fixture(t)
	steps := explainSteps(t, cat, "SELECT u.name, o.item FROM users u, orders o WHERE u.uid = o.uid")
	joined := strings.Join(steps, " | ")
	if !strings.Contains(joined, "join") {
		t.Fatalf("EXPLAIN of a join shows no join step: %v", steps)
	}
}

// TestRangeScanMatchesFullScan is the property test: on random data, a range
// query (whatever path the planner picks) returns exactly the rows a
// filtered full scan would.
func TestRangeScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE pts (id INT PRIMARY KEY, k INT, tag TEXT);
		CREATE ORDERED INDEX pts_k ON pts (k);
	`)
	type rec struct {
		id, k int64
	}
	var model []rec
	for i := 0; i < 400; i++ {
		k := int64(rng.Intn(60))
		model = append(model, rec{id: int64(i), k: k})
		exec(t, cat, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d, 't%d')", i, k, k))
	}

	ops := []string{"<", "<=", ">", ">="}
	for trial := 0; trial < 200; trial++ {
		var conds []string
		match := func(k int64) bool { return true }
		if rng.Intn(4) > 0 {
			b := int64(rng.Intn(60))
			op := ops[rng.Intn(len(ops))]
			conds = append(conds, fmt.Sprintf("k %s %d", op, b))
			prev := match
			match = func(k int64) bool { return prev(k) && cmpOp(k, op, b) }
		}
		if rng.Intn(2) == 0 {
			b := int64(rng.Intn(60))
			op := ops[rng.Intn(len(ops))]
			conds = append(conds, fmt.Sprintf("k %s %d", op, b))
			prev := match
			match = func(k int64) bool { return prev(k) && cmpOp(k, op, b) }
		}
		sql := "SELECT id FROM pts"
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		res := exec(t, cat, sql)
		got := make(map[int64]bool, len(res.Rows))
		for _, r := range res.Rows {
			got[r[0].AsInt()] = true
		}
		want := make(map[int64]bool)
		for _, m := range model {
			if match(m.k) {
				want[m.id] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %q: got %d rows, want %d", trial, sql, len(got), len(want))
		}
	}
}

func cmpOp(a int64, op string, b int64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// benchRangeCatalog builds a bare catalog holding a table ev(id, ts, v) with
// n rows, ts dense 0..n-1, optionally carrying an ordered index on ts.
// Inserts go in multi-statement scripts so setup stays a small fraction of
// the measured time.
func benchRangeCatalog(b *testing.B, n int, ordered bool) *engine.Catalog {
	b.Helper()
	cat := engine.NewCatalog()
	ddl := "CREATE TABLE ev (id INT PRIMARY KEY, ts INT, v INT)"
	if ordered {
		ddl += "; CREATE ORDERED INDEX ev_ts ON ev (ts)"
	}
	if _, err := execErr(cat, ddl); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "INSERT INTO ev VALUES (%d, %d, %d);", i, i, i%97)
		if (i+1)%500 == 0 || i == n-1 {
			if _, err := execErr(cat, sb.String()); err != nil {
				b.Fatal(err)
			}
			sb.Reset()
		}
	}
	return cat
}

// BenchmarkRangeQuery measures a 1%-selective range predicate on a
// 100k-row table with and without an ordered index on the range column.
// The ordered walk touches ~1k keys where the scan touches 100k, so the
// indexed side should come in well over an order of magnitude faster.
func BenchmarkRangeQuery(b *testing.B) {
	const n = 100000
	const span = n / 100 // 1% selectivity
	lo := (n - span) / 2
	q := fmt.Sprintf("SELECT E.id FROM ev E WHERE E.ts >= %d AND E.ts < %d", lo, lo+span)

	for _, tc := range []struct {
		name    string
		ordered bool
	}{{"ordered", true}, {"scan", false}} {
		cat := benchRangeCatalog(b, n, tc.ordered)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := execErr(cat, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != span {
					b.Fatalf("got %d rows, want %d", len(res.Rows), span)
				}
			}
		})
	}
}
