package bench

import (
	"strings"
	"testing"

	"beliefdb/internal/gen"
)

// Small-scale versions of the paper experiments asserting the qualitative
// claims of Sect. 6 (the cmd/beliefbench tool runs the full-scale ones).

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Table1Config{N: 300, Reps: 2, Seed: 1, Users: []int{4, 10}}
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(DepthDists)*len(cfg.Users)*2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Claim 1: more users -> larger overhead (for the uniform-depth dist).
	small, _ := res.Cell(4, gen.Uniform, DepthDists[0])
	large, _ := res.Cell(10, gen.Uniform, DepthDists[0])
	if large.Overhead <= small.Overhead {
		t.Errorf("overhead should grow with m: m=4 %.1f vs m=10 %.1f", small.Overhead, large.Overhead)
	}
	// Claim 2: Zipf participation shrinks the overhead vs uniform for the
	// deep distribution with many users (fewer distinct worlds).
	z, _ := res.Cell(10, gen.Zipf, DepthDists[0])
	u, _ := res.Cell(10, gen.Uniform, DepthDists[0])
	if z.Overhead >= u.Overhead {
		t.Errorf("Zipf should reduce overhead: zipf %.1f vs uniform %.1f", z.Overhead, u.Overhead)
	}
	// Claim 3: the depth-1-heavy distribution has the smallest overhead
	// (row 3 of Table 1 is smallest in every column).
	for _, m := range cfg.Users {
		for _, p := range []gen.Participation{gen.Zipf, gen.Uniform} {
			deep, _ := res.Cell(m, p, DepthDists[0])
			shallow, _ := res.Cell(m, p, DepthDists[2])
			if shallow.Overhead >= deep.Overhead {
				t.Errorf("m=%d %s: depth-1-heavy %.1f should be below uniform-depth %.1f",
					m, p, shallow.Overhead, deep.Overhead)
			}
		}
	}
	// Rendering includes every column pair.
	out := res.Render()
	if !strings.Contains(out, "m=4") || !strings.Contains(out, "m=10") {
		t.Errorf("render missing columns:\n%s", out)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Figure6Config{Ns: []int{20, 100, 400}, Users: 30, Reps: 2, Seed: 2}
	res, err := RunFigure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Uniform-depth series grows with n; depth-1-heavy series shrinks.
	grow := res.Series[0].Overheads
	shrink := res.Series[1].Overheads
	if !(grow[len(grow)-1] > grow[0]) {
		t.Errorf("uniform-depth overhead should grow with n: %v", grow)
	}
	if !(shrink[len(shrink)-1] < shrink[0]) {
		t.Errorf("depth-1-heavy overhead should shrink with n: %v", shrink)
	}
	if out := res.Render(); !strings.Contains(out, "Figure 6") {
		t.Error("render header missing")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Table2Config{N: 600, Users: 8, QueryReps: 40, Seed: 3}
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// The paper's qualitative ordering: content queries are fastest; the
	// user query q3 (negative subgoal over all users' worlds) is slowest.
	if !(byName["q3"].Mean > byName["q1,0"].Mean) {
		t.Errorf("q3 (%v) should be slower than q1,0 (%v)", byName["q3"].Mean, byName["q1,0"].Mean)
	}
	if !(byName["q2"].Mean > byName["q1,0"].Mean) {
		t.Errorf("q2 (%v) should be slower than q1,0 (%v)", byName["q2"].Mean, byName["q1,0"].Mean)
	}
	// Content queries return non-empty results at every depth (the root
	// content is believed by default everywhere).
	for _, n := range []string{"q1,0", "q1,1", "q1,2", "q1,3", "q1,4"} {
		if byName[n].ResultSize == 0 {
			t.Errorf("%s returned no rows", n)
		}
	}
	if out := res.Render(); !strings.Contains(out, "E(Time)") {
		t.Error("render missing stats rows")
	}
}

func TestSpaceBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := RunSpaceBounds(200, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ERows > r.Bound {
			t.Errorf("dmax=%d: |E| = %d exceeds m*N = %d", r.MaxDepth, r.ERows, r.Bound)
		}
		if r.VRows > r.N*r.States {
			t.Errorf("dmax=%d: |V| = %d exceeds n*N = %d", r.MaxDepth, r.VRows, r.N*r.States)
		}
	}
	if out := RenderSpaceBounds(rows); !strings.Contains(out, "dmax") {
		t.Error("render missing header")
	}
}

func TestBuildDBDeterministic(t *testing.T) {
	cfg := gen.Config{Users: 5, DepthDist: []float64{0.5, 0.3, 0.2}, Seed: 9, KeyPool: 32}
	_, s1, err := BuildDB(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := BuildDB(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s1.TotalRows != s2.TotalRows || s1.States != s2.States {
		t.Errorf("same seed produced different databases: %+v vs %+v", s1, s2)
	}
}
