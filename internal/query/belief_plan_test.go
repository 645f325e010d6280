package query_test

// Golden EXPLAINs of translated BeliefSQL. They live in the external test
// package because they need a real belief store, and internal/store
// imports this package.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

const beliefPlanUsers = 4

// beliefPlanStore is a fixed 400-statement store over gen's relation.
func beliefPlanStore(t *testing.T) (*bsql.Translator, *store.Store) {
	t.Helper()
	cols := make([]store.Column, 0, 5)
	for _, c := range gen.RelColumns() {
		cols = append(cols, store.Column{Name: c, Type: val.KindString})
	}
	st, err := store.Open([]store.Relation{{Name: gen.DefaultRel, Columns: cols}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= beliefPlanUsers; u++ {
		if _, err := st.AddUser(fmt.Sprintf("u%d", u)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := gen.New(gen.Config{
		Users: beliefPlanUsers, DepthDist: []float64{0.3, 0.5, 0.15, 0.05},
		Participation: gen.Zipf, KeyPool: 60, Seed: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Load(400, func(s core.Statement) (bool, error) { return st.Insert(s) }); err != nil {
		t.Fatal(err)
	}
	return bsql.NewTranslator(st), st
}

// beliefExplain returns the EXPLAIN rows of q and their rendering as
// "binding | access_path | detail | rows".
func beliefExplain(t *testing.T, tr *bsql.Translator, q string) ([][]val.Value, []string) {
	t.Helper()
	res, err := tr.Exec("explain " + q)
	if err != nil {
		t.Fatalf("explain %s: %v", q, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprintf("%s | %s | %s | %d", r[0].AsString(), r[1].AsString(), r[2].AsString(), r[3].AsInt())
	}
	return res.Rows, out
}

// TestPositivePlans pins the plans of the shapes that contain no negated
// atom: the content queries of analytic-read at depths 0 to 4 along
// u1·u2·u1·u2, point lookups (depth 0, 1, 2), location, world, group and
// top-k. A point lookup probes its few key variants first and reaches S_v
// through the (wid, tid) index; every other shape walks its belief world.
func TestPositivePlans(t *testing.T) {
	tr, _ := beliefPlanStore(t)
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{"select T.sid, T.species from S T", []string{
			"_v1 | eq probe | index=S_v_ix1 est=77 | 56",
			"T | index join | pk | 56",
		}},
		{"select T.sid, T.species from BELIEF 'u1' S T", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"T | index join | pk | 57",
		}},
		{"select T.sid, T.species from BELIEF 'u1' BELIEF 'u2' S T", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_e2 | index join | index=_e_ix0 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"T | index join | pk | 57",
		}},
		{"select T.sid, T.species from BELIEF 'u1' BELIEF 'u2' BELIEF 'u1' S T", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_e2 | index join | index=_e_ix0 | 1",
			"_e3 | index join | index=_e_ix0 | 1",
			"_v1 | index join | index=S_v_ix1 | 56",
			"T | index join | pk | 56",
		}},
		{"select T.sid, T.species from BELIEF 'u1' BELIEF 'u2' BELIEF 'u1' BELIEF 'u2' S T", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_e2 | index join | index=_e_ix0 | 1",
			"_e3 | index join | index=_e_ix0 | 1",
			"_e4 | index join | index=_e_ix0 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"T | index join | pk | 57",
		}},
		{"select T.species from S T where T.sid = 'k7'", []string{
			"T | eq probe | index=S_star_key est=3 | 4",
			"_v1 | index join | index=S_v_ix3 | 1",
		}},
		{"select T.species from BELIEF 'u1' S T where T.sid = 'k7'", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"T | eq probe | index=S_star_key est=3 | 4",
			"T | cross join |  | 4",
			"_v1 | index join | index=S_v_ix3 | 1",
		}},
		{"select T.species from BELIEF 'u2' BELIEF 'u1' S T where T.sid = 'k7'", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_e2 | index join | index=_e_ix0 | 1",
			"T | eq probe | index=S_star_key est=3 | 4",
			"T | cross join |  | 4",
			"_v1 | index join | index=S_v_ix3 | 1",
		}},
		{"select T.sid, T.species from BELIEF 'u1' S T where T.location = 'loc1'", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"T | index join | pk | 5",
		}},
		{"select * from BELIEF 'u1' S", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"S | index join | pk | 57",
		}},
		{"select T.observer, count(T.sid) from BELIEF 'u1' S T group by T.observer", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"T | index join | pk | 57",
		}},
		{"select T.sid, T.species from BELIEF 'u1' S T order by T.sid limit 10", []string{
			"_e1 | eq probe | index=_e_ix0 est=1 | 1",
			"_v1 | index join | index=S_v_ix1 | 57",
			"T | index join | pk | 57",
		}},
	} {
		if _, got := beliefExplain(t, tr, tc.q); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s\n got  %q\n want %q", tc.q, got, tc.want)
		}
	}
}

// TestPointReadsProbeKeyVariants: a point lookup at depth 0, 1 or 2, for
// every key of the store and for an absent one, produces no EXPLAIN step
// with more rows than the key has S_star variants (or than the one world
// an E-chain step reaches), so the rows it examines do not grow with the
// size of the belief world.
func TestPointReadsProbeKeyVariants(t *testing.T) {
	tr, st := beliefPlanStore(t)
	for _, path := range []string{"", "BELIEF 'u1' ", "BELIEF 'u2' BELIEF 'u1' "} {
		for k := 0; k <= 60; k++ { // gen's key pool is k0..k59; k60 is absent
			key := fmt.Sprintf("k%d", k)
			res, err := st.SQL(fmt.Sprintf("select count(*) from S_star where sid = '%s'", key))
			if err != nil {
				t.Fatal(err)
			}
			variants := res.Rows[0][0].AsInt()
			if k == 60 && variants != 0 {
				t.Fatalf("%s has %d variants; the test wants an absent key", key, variants)
			}
			q := fmt.Sprintf("select T.species from %sS T where T.sid = '%s'", path, key)
			rows, got := beliefExplain(t, tr, q)
			for _, r := range rows {
				if r[3].AsInt() > max(variants, 1) {
					t.Errorf("%s: step %q produces more than the key's %d variants: %q", q, r[0].AsString(), variants, got)
				}
			}
		}
	}
}

const sameTuple = ` T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
	and T2.date = T1.date and T2.location = T1.location`

// TestNegatedAtomsPlanAsSemiJoins: the disagreement shapes of Sect. 6.2 run
// each negated atom as exactly one semi-join step, and no step produces
// more rows than the positive part alone (its largest step) crossed with
// the users — the witnesses of a negated atom are never materialised.
func TestNegatedAtomsPlanAsSemiJoins(t *testing.T) {
	tr, _ := beliefPlanStore(t)
	for _, tc := range []struct {
		name, q, positive string
		semiJoins         int
		want              []string
	}{
		{
			name:      "q2",
			q:         `select T1.sid, T1.species from BELIEF 'u2' BELIEF 'u1' S T1, BELIEF 'u2' not S T2 where` + sameTuple,
			positive:  `select T1.sid, T1.species from BELIEF 'u2' BELIEF 'u1' S T1`,
			semiJoins: 1,
			want: []string{
				"_e1 | eq probe | index=_e_ix0 est=1 | 1",
				"_e2 | index join | index=_e_ix0 | 1",
				"_v1 | index join | index=S_v_ix1 | 56",
				"T1 | index join | pk | 56",
				"_e3,_v2,T2 | semi join | _e3 index=_e_ix0 once -> _v2 index=S_v_ix0 -> T2 pk fetched=127 | 32",
			},
		},
		{
			name: "q3",
			q: `select U.uid from Users U, BELIEF 'u1' S T1, BELIEF U.uid not S T2
				where T1.location = 'loc1' and` + sameTuple,
			positive:  `select T1.sid, T1.species from BELIEF 'u1' S T1 where T1.location = 'loc1'`,
			semiJoins: 1,
			want: []string{
				"_e1 | eq probe | index=_e_ix0 est=1 | 1",
				"_v1 | index join | index=S_v_ix1 | 57",
				"T1 | index join | pk | 5",
				"U | full scan | est=4 | 4",
				"U | cross join |  | 20",
				"_e2,_v2,T2 | semi join | _e2 index=_e_ix0 -> _v2 index=S_v_ix0 -> T2 pk fetched=62 | 13",
			},
		},
		{
			name: "two negated atoms, one at depth 2 behind a variable",
			q: `select U.uid, T1.sid from Users U, BELIEF 'u1' S T1, BELIEF 'u2' not S T2, BELIEF 'u3' BELIEF U.uid not S T3
				where` + sameTuple + strings.ReplaceAll(" and"+sameTuple, "T2", "T3"),
			positive:  `select T1.sid, T1.species from BELIEF 'u1' S T1`,
			semiJoins: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, got := beliefExplain(t, tr, tc.q)
			if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("plan\n got  %q\n want %q", got, tc.want)
			}
			var bound int64
			pos, _ := beliefExplain(t, tr, tc.positive)
			for _, r := range pos {
				bound = max(bound, r[3].AsInt()*beliefPlanUsers)
			}
			semi := 0
			for _, r := range rows {
				if r[1].AsString() == "semi join" {
					semi++
				}
				if r[3].AsInt() > bound {
					t.Errorf("step %v produces more than %d rows, the positive part's largest step x |Users|", r, bound)
				}
			}
			if semi != tc.semiJoins {
				t.Errorf("%d semi join steps, want %d: %q", semi, tc.semiJoins, got)
			}
		})
	}
}
