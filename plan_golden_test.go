package beliefdb_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"beliefdb/internal/bench"
	"beliefdb/internal/gen"
)

const planGoldenFile = "testdata/negated_plans.golden"

// negatedPlanQueries are the disagreement shapes of Sect. 6.2 with their
// constant users varied: q2 for every ordered pair of distinct believers
// among u1…u4, q3 for each of u1…u4 as its constant user, and a query with
// two negated atoms, one at depth 2 behind a variable. q2 and q3 are the
// analytic-read workload's own text (bench.Table2Queries) with the users
// substituted.
func negatedPlanQueries() [][2]string {
	var q2, q3 string
	for _, q := range bench.Table2Queries() {
		switch q.Name {
		case "q2":
			q2 = q.Query
		case "q3":
			q3 = q.Query
		}
	}
	users := []string{"u1", "u2", "u3", "u4"}
	var qs [][2]string
	for _, a := range users {
		for _, b := range users {
			if a != b {
				r := strings.NewReplacer("'u2'", "'"+a+"'", "'u1'", "'"+b+"'")
				qs = append(qs, [2]string{"q2 " + a + " " + b, r.Replace(q2)})
			}
		}
	}
	for _, u := range users {
		qs = append(qs, [2]string{"q3 " + u, strings.ReplaceAll(q3, "'u1'", "'"+u+"'")})
	}
	same := ` T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
		and T2.date = T1.date and T2.location = T1.location`
	two := fmt.Sprintf(`select U.uid, T1.sid from Users U, BELIEF 'u1' %[1]s T1, BELIEF 'u2' not %[1]s T2,
		BELIEF 'u3' BELIEF U.uid not %[1]s T3 where`, gen.DefaultRel) +
		same + strings.ReplaceAll(" and"+same, "T2", "T3")
	return append(qs, [2]string{"two negated atoms", two})
}

// negatedPlans renders the EXPLAIN of every negatedPlanQueries query on
// benchDB(1000, 10): a name line, then one "binding | access_path | detail
// | rows" line per step, records separated by a blank line.
func negatedPlans(t *testing.T) string {
	db := benchDB(t, 1000, 10)
	var sb strings.Builder
	for i, q := range negatedPlanQueries() {
		if i > 0 {
			sb.WriteString("\n")
		}
		res, err := db.Query("explain " + q[1])
		if err != nil {
			t.Fatalf("%s: %v", q[0], err)
		}
		sb.WriteString(q[0] + "\n")
		for _, r := range res.Rows {
			fmt.Fprintf(&sb, "%s | %s | %s | %d\n", r[0].AsString(), r[1].AsString(), r[2].AsString(), r[3].AsInt())
		}
	}
	return sb.String()
}

// TestNegatedPlansGolden: the plans of the negated shapes the analytic-read
// workload runs, rows included, are the recorded ones byte for byte, so an
// unchanged file means their work is unchanged.
func TestNegatedPlansGolden(t *testing.T) {
	want, err := os.ReadFile(planGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := negatedPlans(t)
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d\n got  %q\n want %q", planGoldenFile, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", planGoldenFile, len(g), len(w))
}
