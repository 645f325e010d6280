package bsql_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/paperex"
	"beliefdb/internal/query"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

func exampleStore(t *testing.T) (*store.Store, *bsql.Translator) {
	t.Helper()
	st, err := store.Open([]store.Relation{
		{Name: paperex.SightingsRel, Columns: []store.Column{
			{Name: "sid", Type: val.KindString}, {Name: "uid", Type: val.KindString},
			{Name: "species", Type: val.KindString}, {Name: "date", Type: val.KindString},
			{Name: "location", Type: val.KindString},
		}},
		{Name: paperex.CommentsRel, Columns: []store.Column{
			{Name: "cid", Type: val.KindString}, {Name: "comment", Type: val.KindString},
			{Name: "sid", Type: val.KindString},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"Alice", "Bob", "Carol"} {
		if _, err := st.AddUser(n); err != nil {
			t.Fatal(err)
		}
	}
	return st, bsql.NewTranslator(st)
}

// insertExampleViaBeliefSQL runs the paper's i1..i8 as BeliefSQL text.
func insertExampleViaBeliefSQL(t *testing.T, tr *bsql.Translator) {
	t.Helper()
	script := []string{
		`insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')`,
		`insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')`,
		`insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest')`,
		`insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')`,
		`insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2')`,
		`insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid')`,
		`insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')`,
		`insert into BELIEF 'Bob' Comments values ('c2','purple-black feathers','s2')`,
	}
	for i, s := range script {
		res, err := tr.Exec(s)
		if err != nil {
			t.Fatalf("i%d: %v", i+1, err)
		}
		if res.Affected != 1 {
			t.Fatalf("i%d affected = %d", i+1, res.Affected)
		}
	}
}

func rowStrings(res *query.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func TestParseBeliefSQL(t *testing.T) {
	s, err := bsql.Parse(`select S.sid from Users as U, BELIEF U.uid not Sightings as S where U.name = 'Bob'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(bsql.Select)
	if len(sel.From) != 2 {
		t.Fatalf("from = %+v", sel.From)
	}
	ref := sel.From[1]
	if !ref.Negated || len(ref.Path) != 1 || !ref.Path[0].IsRef || ref.Path[0].Ref.String() != "U.uid" {
		t.Errorf("ref = %+v", ref)
	}
	ins, err := bsql.Parse(`insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','x','s2')`)
	if err != nil {
		t.Fatal(err)
	}
	target := ins.(bsql.Insert).Target
	if len(target.Path) != 2 || target.Path[0].Literal != "Bob" || target.Path[1].Literal != "Alice" {
		t.Errorf("target = %+v", target)
	}
	if _, err := bsql.Parse(`insert into not Sightings values ('x')`); err == nil {
		t.Error("'not' without BELIEF accepted")
	}
	if _, err := bsql.Parse(`select x from`); err == nil {
		t.Error("bad select accepted")
	}
	// Bare identifier user names are allowed.
	s2, err := bsql.Parse(`select S.sid from BELIEF Bob Sightings S`)
	if err != nil {
		t.Fatal(err)
	}
	if s2.(bsql.Select).From[0].Path[0].Literal != "Bob" {
		t.Error("bare user name not parsed")
	}
}

func TestRunningExampleInsertsMatchDirectAPI(t *testing.T) {
	st, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	stmts, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 8 {
		t.Fatalf("statements = %d", len(stmts))
	}
	b := paperex.Base()
	for _, p := range []core.Path{{}, {paperex.Alice}, {paperex.Bob}, {paperex.Bob, paperex.Alice}} {
		w, err := st.WorldContent(p)
		if err != nil {
			t.Fatal(err)
		}
		if !w.EqualWithFlags(b.EntailedWorld(p)) {
			t.Errorf("world %s differs from reference", p)
		}
	}
}

// TestPaperQ1: Sect. 2 q1 — sightings believed by Bob. (The paper's prose
// says "at Lake Forest" but its stated answer ('s2','Alice','raven') is the
// Lake Placid sighting; we query Lake Placid accordingly.)
func TestPaperQ1(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	res, err := tr.Exec(`
		select S.sid, S.uid, S.species
		from Users as U, BELIEF U.uid Sightings as S
		where U.name = 'Bob' and S.location = 'Lake Placid'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"s2|Alice|raven"}) {
		t.Errorf("q1 = %v", got)
	}
}

// TestPaperQ2: Sect. 2 q2 — entries on which users disagree with Alice.
func TestPaperQ2(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	res, err := tr.Exec(`
		select U2.name, S1.species, S2.species
		from Users as U1, Users as U2,
			BELIEF U1.uid Sightings as S1,
			BELIEF U2.uid Sightings as S2
		where U1.name = 'Alice'
		and S1.sid = S2.sid
		and S1.species <> S2.species`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"Bob|crow|raven"}) {
		t.Errorf("q2 = %v", got)
	}
}

// TestPaperQ3: Sect. 6.2 q3 — who disagrees with any of Alice's beliefs of
// sightings at Lake Placid (negative subgoal with a path variable; Bob's
// disagreement with the crow is an *unstated* negative via his raven).
func TestPaperQ3(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	res, err := tr.Exec(`
		select U2.name
		from Users U1, Users U2,
			BELIEF U1.uid Sightings S1,
			BELIEF U2.uid not Sightings S2
		where U1.name = 'Alice' and S1.location = 'Lake Placid'
		and S2.sid = S1.sid and S2.uid = S1.uid and S2.species = S1.species
		and S2.date = S1.date and S2.location = S1.location`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("q3 = %v", got)
	}
}

// TestStatedNegativeQuery: Bob's stated disagreement with the bald eagle.
func TestStatedNegativeQuery(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	res, err := tr.Exec(`
		select U.name
		from Users U, BELIEF U.uid not Sightings S
		where S.sid = 's1' and S.uid = 'Carol' and S.species = 'bald eagle'
		and S.date = '6-14-08' and S.location = 'Lake Forest'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("rows = %v", got)
	}
}

// TestExample18 builds the disputed-samples scenario of Example 18.
func TestExample18(t *testing.T) {
	st, err := store.Open([]store.Relation{{Name: "R", Columns: []store.Column{
		{Name: "sample", Type: val.KindString},
		{Name: "category", Type: val.KindString},
		{Name: "origin", Type: val.KindString},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"u1", "u2"} {
		st.AddUser(n)
	}
	tr := bsql.NewTranslator(st)
	script := `
		insert into BELIEF 'u1' R values ('s1','catA','origX');
		insert into BELIEF 'u2' not R values ('s1','catA','origX');
		insert into BELIEF 'u1' R values ('s2','catB','origY');
		insert into BELIEF 'u2' R values ('s2','catC','origY');
	`
	if _, err := tr.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Exec(`
		select R1.sample, U1.name, U2.name
		from Users as U1, Users as U2,
			BELIEF U1.uid R as R1,
			BELIEF U2.uid not R as R2
		where R1.sample = R2.sample
		and R1.category = R2.category
		and R1.origin = R2.origin`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"s1|u1|u2", // stated negative
		"s2|u1|u2", // unstated: u2's catC conflicts with u1's catB
		"s2|u2|u1", // unstated: u1's catB conflicts with u2's catC
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("example 18 = %v, want %v", got, want)
	}
}

// TestNegatedAtomComparesTuplesNullSafe: a negated atom's attribute
// comparison is tuple identity, as in core.Eval — NULL equals NULL and
// differs from any constant — not SQL's three-valued '=' / '<>'.
func TestNegatedAtomComparesTuplesNullSafe(t *testing.T) {
	st, err := store.Open([]store.Relation{{Name: "S", Columns: []store.Column{
		{Name: "sid", Type: val.KindString}, {Name: "species", Type: val.KindString},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"u1", "u2"} {
		if _, err := st.AddUser(n); err != nil {
			t.Fatal(err)
		}
	}
	tr := bsql.NewTranslator(st)
	if _, err := tr.ExecScript(`
		insert into BELIEF 'u1' S values ('k1','crow');
		insert into BELIEF 'u2' S values ('k1',NULL);
		insert into BELIEF 'u1' S values ('k2',NULL);
		insert into BELIEF 'u2' S values ('k2',NULL);
		insert into BELIEF 'u1' S values ('k3',NULL);
		insert into BELIEF 'u2' not S values ('k3',NULL);
	`); err != nil {
		t.Fatal(err)
	}
	disagree := `select T1.sid, T1.species from BELIEF '%s' S T1, BELIEF '%s' not S T2
		where T2.sid = T1.sid and T2.species = T1.species`
	for _, tc := range []struct {
		pos, neg string
		want     []string
	}{
		// u2's (k1,NULL) is an unstated negative of u1's (k1,crow); u2 holds
		// the very tuple (k2,NULL); (k3,NULL) is a stated negative.
		{"u1", "u2", []string{"k1|crow", "k3|NULL"}},
		{"u2", "u1", []string{"k1|NULL"}},
	} {
		res, err := tr.Exec(fmt.Sprintf(disagree, tc.pos, tc.neg))
		if err != nil {
			t.Fatal(err)
		}
		if got := rowStrings(res); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s vs not %s = %v, want %v", tc.pos, tc.neg, got, tc.want)
		}
	}
	// A NULL constant binds like any other.
	res, err := tr.Exec(`select U.name from Users U, BELIEF U.uid not S T where T.sid = 'k1' and T.species = NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"u1"}) {
		t.Errorf("who disbelieves (k1,NULL) = %v, want [u1]", got)
	}
}

// TestNegatedBindingResolvesOutside: an unqualified column in a negated
// item's binding means the enclosing query's column even when the item's
// own subquery has one of that name (_e.uid here).
func TestNegatedBindingResolvesOutside(t *testing.T) {
	st, err := store.Open([]store.Relation{{Name: "R", Columns: []store.Column{
		{Name: "k", Type: val.KindInt}, {Name: "w", Type: val.KindInt},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"u1", "u2"} {
		if _, err := st.AddUser(n); err != nil {
			t.Fatal(err)
		}
	}
	tr := bsql.NewTranslator(st)
	if _, err := tr.Exec(`insert into BELIEF 'u1' R values (1, 5)`); err != nil {
		t.Fatal(err)
	}
	// u1 holds (1,5), so disbelieves (1,7); nobody says anything on key 2.
	res, err := tr.Exec(`select U.name from Users U, BELIEF 'u1' not R N where N.k = uid and N.w = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"u1"}) {
		t.Errorf("rows = %v, want [u1]", got)
	}
}

func TestUnsafeQueriesRejected(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	bad := []string{
		// Unbound attribute of a negated item.
		`select U.name from Users U, BELIEF U.uid not Sightings S where S.sid = 's1'`,
		// Selecting a negated item's column.
		`select S.species from Users U, BELIEF U.uid not Sightings S
		 where S.sid='s1' and S.uid='x' and S.species='y' and S.date='z' and S.location='w'`,
		// Negated item used outside attribute equalities.
		`select U.name from Users U, BELIEF U.uid not Sightings S, BELIEF 'Alice' Sightings P
		 where S.sid=P.sid and S.uid=P.uid and S.species=P.species and S.date=P.date
		 and S.location=P.location and S.species <> 'crow'`,
		// Equating two negated items.
		`select U.name from Users U, BELIEF U.uid not Sightings S, BELIEF 'Bob' not Sightings S2
		 where S.sid=S2.sid and S.uid=S2.uid and S.species=S2.species and S.date=S2.date and S.location=S2.location
		 and S2.sid='s1' and S2.uid='c' and S2.species='x' and S2.date='d' and S2.location='l'`,
		// Unknown user.
		`select S.sid from BELIEF 'Nobody' Sightings S`,
		// BELIEF on a plain table.
		`select U.name from BELIEF 'Bob' Users U`,
		// Adjacent repetition of a constant path.
		`select S.sid from BELIEF 'Bob' BELIEF 'Bob' Sightings S`,
		// EXISTS is the engine's form of a negated item, not BeliefSQL.
		`select U.name from Users U where exists (select 1 from _e e where e.uid = U.uid)`,
		`select U.name from Users U, BELIEF U.uid not Comments C
		 where C.cid = 'c1' and C.sid = 's2' and C.comment = exists (select 1 from Users)`,
	}
	for _, q := range bad {
		if _, err := tr.Exec(q); err == nil {
			t.Errorf("unsafe/invalid query accepted: %s", q)
		}
	}
}

func TestHigherOrderContentQuery(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	// What does Bob believe Alice believes about comments? (i7 plus the
	// inherited found-feathers comment.)
	res, err := tr.Exec(`
		select C.cid, C.comment from BELIEF 'Bob' BELIEF 'Alice' Comments C`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"c1|found feathers", "c2|black feathers"}
	if got := rowStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	// Deep paths resolve through back edges: Carol→Bob→Alice equals
	// Bob→Alice.
	res2, err := tr.Exec(`
		select C.cid, C.comment from BELIEF 'Carol' BELIEF 'Bob' BELIEF 'Alice' Comments C`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res2); !reflect.DeepEqual(got, want) {
		t.Errorf("deep rows = %v, want %v", got, want)
	}
}

func TestAdjacentDistinctPathVariables(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	// Two path variables: valuations with x = y are not in Û* and must be
	// excluded even though the structure has the edges to walk them.
	res, err := tr.Exec(`
		select U1.name, U2.name, S.species
		from Users U1, Users U2, BELIEF U1.uid BELIEF U2.uid Sightings S
		where S.sid = 's2'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].AsString() == r[1].AsString() {
			t.Errorf("adjacent-equal path valuation leaked: %v", r)
		}
	}
	if len(res.Rows) == 0 {
		t.Error("no rows for depth-2 path variables")
	}
}

func TestBeliefSQLDeleteUpdate(t *testing.T) {
	st, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	// Delete Bob's negative about the fish eagle.
	res, err := tr.Exec(`delete from BELIEF 'Bob' not Sightings where species = 'fish eagle'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	if st.Len() != 7 {
		t.Errorf("n = %d", st.Len())
	}
	// Update Alice's crow to a raven; afterwards Alice and Bob agree.
	res, err = tr.Exec(`update BELIEF 'Alice' Sightings set species = 'raven' where sid = 's2'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	got, err := st.Entails(core.Path{paperex.Alice}, paperex.S22, core.Pos)
	if err != nil || !got {
		t.Errorf("Alice should now believe the raven: %v %v", got, err)
	}
	// The conflict query q2 returns nothing now.
	res, err = tr.Exec(`
		select U2.name, S1.species, S2.species
		from Users as U1, Users as U2,
			BELIEF U1.uid Sightings as S1, BELIEF U2.uid Sightings as S2
		where U1.name = 'Alice' and S1.sid = S2.sid and S1.species <> S2.species`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("conflicts remain: %v", rowStrings(res))
	}
}

func TestTranslateSelectShape(t *testing.T) {
	_, tr := exampleStore(t)
	sel, err := bsql.Parse(`select S.sid from BELIEF 'Bob' BELIEF 'Alice' Sightings S`)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := tr.TranslateSelect(sel.(bsql.Select))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"SELECT DISTINCT", "_e", "Sightings_v", "Sightings_star AS S", "wid1 = 0", ".s = '+'"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("translated SQL missing %q:\n%s", frag, sql)
		}
	}
}

// TestQuickAlgorithm1MatchesReferenceEval: on random belief databases
// (some attributes NULL), the Algorithm 1 SQL translation returns exactly
// the reference BCQ evaluation for content, conflict, and user (negative
// path-variable) queries, and for negated atoms bound to constants, two in
// one query, and behind a path variable at depth 2.
func TestQuickAlgorithm1MatchesReferenceEval(t *testing.T) {
	relCols := gen.RelColumns()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(3)
		n := 15 + r.Intn(35)

		cols := make([]store.Column, len(relCols))
		for i, c := range relCols {
			cols[i] = store.Column{Name: c, Type: val.KindString}
		}
		st, err := store.Open([]store.Relation{{Name: gen.DefaultRel, Columns: cols}})
		if err != nil {
			t.Fatal(err)
		}
		users := make([]core.UserID, m)
		for i := 0; i < m; i++ {
			uid, err := st.AddUser(fmt.Sprintf("u%d", i+1))
			if err != nil {
				t.Fatal(err)
			}
			users[i] = uid
		}
		base := core.NewBeliefBase()
		g, err := gen.New(gen.Config{
			Users: m, DepthDist: []float64{0.3, 0.4, 0.2, 0.1},
			Participation: gen.Zipf, KeyPool: 6, Variants: 3, NegProb: 0.3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Load(n, func(stmt core.Statement) (bool, error) {
			ch, err := st.Insert(stmt)
			if err != nil {
				return false, err
			}
			if ch {
				if _, err := base.Insert(stmt); err != nil {
					t.Fatalf("core rejected %s: %v", stmt, err)
				}
			}
			return ch, nil
		}); err != nil {
			t.Fatal(err)
		}
		// A few statements with NULL attributes on the generator's keys:
		// tuple identity must treat NULL as a value like any other.
		for i := 0; i < 8; i++ {
			k := r.Intn(6)
			tuple := core.NewTuple(gen.DefaultRel, val.Str(fmt.Sprintf("k%d", k)), val.Str(fmt.Sprintf("obs%d", k)),
				val.Null(), val.Str("6-14-08"), val.Str(fmt.Sprintf("loc%d", k)))
			if r.Intn(2) == 0 {
				tuple.Vals[4] = val.Null()
			}
			stmt := core.Statement{Path: core.Path{users[r.Intn(m)]}, Sign: core.Pos, Tuple: tuple}
			if r.Intn(3) == 0 {
				stmt.Sign = core.Neg
			}
			if ch, err := st.Insert(stmt); err == nil && ch {
				if _, err := base.Insert(stmt); err != nil {
					t.Fatalf("core rejected %s: %v", stmt, err)
				}
			}
		}
		tr := bsql.NewTranslator(st)

		argVars := func() []core.Term {
			out := make([]core.Term, len(relCols))
			for i := range relCols {
				out[i] = core.V("a" + itoa(i))
			}
			return out
		}

		// 1. Content query at a random constant path of depth 0..2.
		depth := r.Intn(3)
		p := make(core.Path, 0, depth)
		for len(p) < depth {
			u := users[r.Intn(m)]
			if len(p) > 0 && p[len(p)-1] == u {
				continue
			}
			p = append(p, u)
		}
		prefix := ""
		pterms := make([]core.PathTerm, len(p))
		for i, u := range p {
			prefix += fmt.Sprintf("BELIEF 'u%d' ", u)
			pterms[i] = core.PU(u)
		}
		sqlRes, err := tr.Exec(fmt.Sprintf(
			"select T.sid, T.species from %s%s T", prefix, gen.DefaultRel))
		if err != nil {
			t.Fatal(err)
		}
		args := argVars()
		wantRows, err := core.Eval(base, users, core.Query{
			Head:  []core.Term{args[0], args[2]},
			Atoms: []core.Atom{{Path: pterms, Sign: core.Pos, Rel: gen.DefaultRel, Args: args}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(sqlRes.Rows, wantRows) {
			t.Logf("seed %d: content query mismatch at %s:\n sql=%v\n ref=%v", seed, p, sqlRes.Rows, wantRows)
			return false
		}

		// 2. Conflict query with two path variables (positive/negative).
		sqlRes, err = tr.Exec(fmt.Sprintf(`
			select U1.uid, U2.uid, T1.sid
			from Users U1, Users U2,
				BELIEF U1.uid %[1]s T1, BELIEF U2.uid not %[1]s T2
			where T2.sid = T1.sid and T2.observer = T1.observer
			and T2.species = T1.species and T2.date = T1.date and T2.location = T1.location`,
			gen.DefaultRel))
		if err != nil {
			t.Fatal(err)
		}
		args = argVars()
		wantRows, err = core.Eval(base, users, core.Query{
			Head: []core.Term{core.V("x"), core.V("y"), args[0]},
			Atoms: []core.Atom{
				{Path: []core.PathTerm{core.PV("x")}, Sign: core.Pos, Rel: gen.DefaultRel, Args: args},
				{Path: []core.PathTerm{core.PV("y")}, Sign: core.Neg, Rel: gen.DefaultRel, Args: args},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(sqlRes.Rows, wantRows) {
			t.Logf("seed %d: conflict query mismatch:\n sql=%v\n ref=%v", seed, sqlRes.Rows, wantRows)
			return false
		}

		// 3. Higher-order content query with one path variable.
		u0 := users[r.Intn(m)]
		sqlRes, err = tr.Exec(fmt.Sprintf(`
			select U.uid, T.sid, T.species
			from Users U, BELIEF 'u%d' BELIEF U.uid %s T`, u0, gen.DefaultRel))
		if err != nil {
			t.Fatal(err)
		}
		args = argVars()
		wantRows, err = core.Eval(base, users, core.Query{
			Head: []core.Term{core.V("x"), args[0], args[2]},
			Atoms: []core.Atom{
				{Path: []core.PathTerm{core.PU(u0), core.PV("x")}, Sign: core.Pos, Rel: gen.DefaultRel, Args: args},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(sqlRes.Rows, wantRows) {
			t.Logf("seed %d: higher-order query mismatch:\n sql=%v\n ref=%v", seed, sqlRes.Rows, wantRows)
			return false
		}

		// 4. Who disbelieves one constant tuple (sometimes with a NULL).
		k := r.Intn(6)
		consts := []val.Value{val.Str(fmt.Sprintf("k%d", k)), val.Str(fmt.Sprintf("obs%d", k)),
			val.Str(fmt.Sprintf("species%d", r.Intn(3))), val.Str("6-14-08"), val.Str(fmt.Sprintf("loc%d", k))}
		if r.Intn(2) == 0 {
			consts[2] = val.Null()
		}
		conds := make([]string, len(relCols))
		constArgs := make([]core.Term, len(relCols))
		for i, c := range relCols {
			conds[i] = fmt.Sprintf("T.%s = %s", c, consts[i].SQL())
			constArgs[i] = core.C(consts[i])
		}
		sqlRes, err = tr.Exec(fmt.Sprintf(`select U.uid from Users U, BELIEF U.uid not %s T where %s`,
			gen.DefaultRel, strings.Join(conds, " and ")))
		if err != nil {
			t.Fatal(err)
		}
		wantRows, err = core.Eval(base, users, core.Query{
			Head:  []core.Term{core.V("x")},
			Atoms: []core.Atom{{Path: []core.PathTerm{core.PV("x")}, Sign: core.Neg, Rel: gen.DefaultRel, Args: constArgs}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(sqlRes.Rows, wantRows) {
			t.Logf("seed %d: constant negated atom mismatch on %v:\n sql=%v\n ref=%v", seed, consts, sqlRes.Rows, wantRows)
			return false
		}

		// 5. Two negated atoms; the second sits behind a path variable at
		// depth 2, so its adjacent-believers-differ condition is correlated.
		sameAs := func(neg string) string {
			eqs := make([]string, len(relCols))
			for i, c := range relCols {
				eqs[i] = fmt.Sprintf("%s.%s = T1.%s", neg, c, c)
			}
			return strings.Join(eqs, " and ")
		}
		sqlRes, err = tr.Exec(fmt.Sprintf(`
			select U1.uid, U2.uid, U3.uid, T1.sid, T1.species
			from Users U1, Users U2, Users U3, BELIEF U1.uid %[1]s T1,
				BELIEF U2.uid not %[1]s T2, BELIEF 'u%[2]d' BELIEF U3.uid not %[1]s T3
			where %[3]s and %[4]s`, gen.DefaultRel, u0, sameAs("T2"), sameAs("T3")))
		if err != nil {
			t.Fatal(err)
		}
		args = argVars()
		wantRows, err = core.Eval(base, users, core.Query{
			Head: []core.Term{core.V("x"), core.V("y"), core.V("z"), args[0], args[2]},
			Atoms: []core.Atom{
				{Path: []core.PathTerm{core.PV("x")}, Sign: core.Pos, Rel: gen.DefaultRel, Args: args},
				{Path: []core.PathTerm{core.PV("y")}, Sign: core.Neg, Rel: gen.DefaultRel, Args: args},
				{Path: []core.PathTerm{core.PU(u0), core.PV("z")}, Sign: core.Neg, Rel: gen.DefaultRel, Args: args},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(sqlRes.Rows, wantRows) {
			t.Logf("seed %d: two negated atoms mismatch:\n sql=%v\n ref=%v", seed, sqlRes.Rows, wantRows)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

func sameRows(a, b [][]val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, r := range a {
		count[val.RowKey(r)]++
	}
	for _, r := range b {
		count[val.RowKey(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestExecScriptBatchesInsertRuns: a script of consecutive INSERTs applies
// as one group commit, observably identical to sequential execution — and
// a failing statement now rolls the whole run back instead of leaving its
// prefix behind.
func TestExecScriptBatchesInsertRuns(t *testing.T) {
	seqSt, seqTr := exampleStore(t)
	insertExampleViaBeliefSQL(t, seqTr)

	batchSt, batchTr := exampleStore(t)
	res, err := batchTr.ExecScript(`
		insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest');
		insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest');
		insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest');
		insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid');
		insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2');
		insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid');
		insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2');
		insert into BELIEF 'Bob' Comments values ('c2','purple-black feathers','s2');
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("last statement affected = %d, want 1", res.Affected)
	}
	if ws, bs := seqSt.Stats().String(), batchSt.Stats().String(); ws != bs {
		t.Errorf("batched script diverged from sequential:\nseq   %sbatch %s", ws, bs)
	}
	wstmts, _ := seqSt.ExplicitStatements()
	bstmts, _ := batchSt.ExplicitStatements()
	if fmt.Sprint(wstmts) != fmt.Sprint(bstmts) {
		t.Errorf("statements diverged:\nseq   %v\nbatch %v", wstmts, bstmts)
	}

	// All-or-nothing: the third insert conflicts (same tuple, opposite
	// sign, same world), so the first two must be rolled back too.
	failSt, failTr := exampleStore(t)
	before := failSt.Stats()
	_, err = failTr.ExecScript(`
		insert into BELIEF 'Alice' Sightings values ('s9','A','kite','d','loc');
		insert into BELIEF 'Alice' Comments values ('c9','note','s9');
		insert into BELIEF 'Alice' not Sightings values ('s9','A','kite','d','loc');
	`)
	if err == nil {
		t.Fatal("conflicting insert run should fail")
	}
	if after := failSt.Stats(); before.String() != after.String() {
		t.Errorf("failed insert run left a prefix behind:\nbefore %safter  %s", before, after)
	}
}

// TestExecBatchScript: ExecBatch applies an all-DML script atomically and
// refuses anything else.
func TestExecBatchScript(t *testing.T) {
	st, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	n := st.Len()
	res, err := tr.ExecBatch(`
		insert into Sightings values ('s5','Bob','osprey','6-16-08','Lake Forest');
		delete from BELIEF 'Bob' Comments where cid = 'c2';
		insert into BELIEF 'Carol' Sightings values ('s5','Bob','osprey','6-16-08','Lake Forest');
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Changed != 3 {
		t.Errorf("result = %+v", res)
	}
	if got := st.Len(); got != n+1 { // +2 inserts, -1 delete
		t.Errorf("n = %d, want %d", got, n+1)
	}
	if _, err := tr.ExecBatch(`select S.sid from Sightings S`); err == nil {
		t.Error("ExecBatch should refuse SELECT")
	}
	if _, err := tr.ExecBatch(`update Sightings set species = 'x' where sid = 's5'`); err == nil {
		t.Error("ExecBatch should refuse UPDATE")
	}
	if _, err := tr.ExecBatch(``); err == nil {
		t.Error("ExecBatch should refuse an empty script")
	}
}

// TestMultiRowInsertAtomic: a single INSERT with several VALUES rows
// commits as one batch; a conflicting row voids the whole statement.
func TestMultiRowInsertAtomic(t *testing.T) {
	st, tr := exampleStore(t)
	res, err := tr.Exec(`insert into BELIEF 'Alice' Sightings values
		('m1','A','crow','d','loc'), ('m2','A','jay','d','loc')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("affected = %d, want 2", res.Affected)
	}
	before := st.Stats()
	_, err = tr.Exec(`insert into BELIEF 'Alice' not Sightings values
		('m3','A','owl','d','loc'), ('m1','A','crow','d','loc')`)
	if err == nil {
		t.Fatal("conflicting multi-row insert should fail")
	}
	if after := st.Stats(); before.String() != after.String() {
		t.Errorf("failed multi-row insert left rows behind:\nbefore %safter  %s", before, after)
	}
}

// TestConstValue: VALUES entries fold to the constants both the batch
// compiler stores and beliefrouter hashes to find a row's shard; anything
// that is not a constant is refused.
func TestConstValue(t *testing.T) {
	st, err := bsql.Parse("insert into R values (-3, -1.5, 'x', 1+2)")
	if err != nil {
		t.Fatal(err)
	}
	row := st.(bsql.Insert).Rows[0]
	for i, want := range []val.Value{val.Int(-3), val.Float(-1.5), val.Str("x")} {
		if got, err := bsql.ConstValue(row[i]); err != nil || got != want {
			t.Errorf("ConstValue(%s) = %v, %v; want %v", row[i], got, err, want)
		}
	}
	if _, err := bsql.ConstValue(row[3]); err == nil {
		t.Errorf("ConstValue(%s) folded a non-constant", row[3])
	}
}
