package bsql_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// targetUsers reaches two-digit user ids, so paths like 10 and 2 meet.
const targetUsers = 12

// intRel is an int-keyed relation beside the generator's string-keyed one,
// for the shapes where the literal's kind differs from the key's.
const intRel = "N"

// targetStore loads a gen trace of inserts, deletes and replaces into a
// store with the generator's relation S and the int-keyed relation
// N(n, label); users are named u1, u2, … after their ids.
func targetStore(tb testing.TB, seed int64, n int) (*store.Store, *bsql.Translator) {
	tb.Helper()
	cols := make([]store.Column, 0, len(gen.RelColumns()))
	for _, c := range gen.RelColumns() {
		cols = append(cols, store.Column{Name: c, Type: val.KindString})
	}
	st, err := store.Open([]store.Relation{
		{Name: gen.DefaultRel, Columns: cols},
		{Name: intRel, Columns: []store.Column{{Name: "n", Type: val.KindInt}, {Name: "label", Type: val.KindString}}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= targetUsers; i++ {
		uid, err := st.AddUser(fmt.Sprintf("u%d", i))
		if err != nil || uid != core.UserID(i) {
			tb.Fatalf("AddUser u%d = %d, %v", i, uid, err)
		}
	}
	g, err := gen.New(gen.Config{
		Users: targetUsers, DepthDist: []float64{0.2, 0.5, 0.3},
		Participation: gen.Zipf, KeyPool: 8, Variants: 3, NegProb: 0.3, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	var seen []core.Statement
	for i := 0; i < n; i++ {
		var op store.BatchOp
		switch x := r.Intn(10); {
		case x < 2 && len(seen) > 0:
			op = store.BatchOp{Delete: true, Stmt: seen[r.Intn(len(seen))]}
		case x < 4 && len(seen) > 0:
			old := seen[r.Intn(len(seen))]
			op = store.BatchOp{Replace: true, Stmt: old, NewVals: g.Next().Tuple.Vals}
			if old.Tuple.Rel == intRel {
				op.NewVals = []val.Value{val.Int(int64(r.Intn(4))), val.Str(string(rune('a' + r.Intn(3))))}
			}
		default:
			s := g.Next()
			if r.Intn(4) == 0 {
				s.Tuple = core.NewTuple(intRel, val.Int(int64(r.Intn(4))), val.Str(string(rune('a'+r.Intn(3)))))
			}
			seen = append(seen, s)
			op = store.BatchOp{Stmt: s}
		}
		// Conflicting and no-op forms are part of the trace: their errors
		// leave the store as it was.
		_, _ = st.ApplyBatch([]store.BatchOp{op})
	}
	return st, bsql.NewTranslator(st)
}

// refPrefix renders a target's path and sign as BeliefSQL.
func refPrefix(p core.Path, s core.Sign) string {
	var sb strings.Builder
	for _, u := range p {
		fmt.Fprintf(&sb, "BELIEF 'u%d' ", u)
	}
	if s == core.Neg {
		sb.WriteString("not ")
	}
	return sb.String()
}

// scanTargets is the reference rule for DML target resolution: every
// explicit statement of the store, filtered by relation, path, sign and
// the WHERE clause.
func scanTargets(t *testing.T, st *store.Store, rel string, p core.Path, s core.Sign, where string) []core.Statement {
	t.Helper()
	relDef, _ := st.Relation(rel)
	cols := make([]string, len(relDef.Columns))
	for i, c := range relDef.Columns {
		cols[i] = c.Name
	}
	var e sqlparser.Expr
	if where != "" {
		sel, err := sqlparser.Parse("select 1 from " + rel + " where " + where)
		if err != nil {
			t.Fatalf("parse %q: %v", where, err)
		}
		e = sel.(sqlparser.Select).Where
	}
	pred, err := query.CompileRow(e, rel, cols)
	if err != nil {
		t.Fatalf("compile %q: %v", where, err)
	}
	all, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Statement
	for _, stmt := range all {
		if stmt.Tuple.Rel != rel || stmt.Sign != s || !stmt.Path.Equal(p) {
			continue
		}
		ok, err := pred.Holds(stmt.Tuple.Vals)
		if err != nil {
			t.Fatalf("%s where %s on %s: %v", rel, where, stmt, err)
		}
		if ok {
			out = append(out, stmt)
		}
	}
	return out
}

// whereShapes returns the WHERE clauses checked against one explicit
// statement x of relation rel (the empty string is no WHERE at all).
func whereShapes(rel string, x core.Statement, other core.Statement) []string {
	if rel == intRel {
		k := x.Tuple.Vals[0].AsInt()
		label := x.Tuple.Vals[1].SQL()
		return []string{
			fmt.Sprintf("n = %d", k),
			fmt.Sprintf("n = %d.0", k),                         // float literal, exact int
			fmt.Sprintf("%d.5 = N.n", k),                       // float literal, no int
			fmt.Sprintf("n = '%d'", k),                         // string against an int key
			fmt.Sprintf("n = -%d and label = %s", k, label),    // folded negative literal
			fmt.Sprintf("label = %s and N.n = %d.0", label, k), // key conjunct second
			"n = NULL",
			fmt.Sprintf("n = %d or n = %d", k, k+1),
			fmt.Sprintf("label = %s", label),
			"",
		}
	}
	key, species := x.Tuple.Vals[0].SQL(), x.Tuple.Vals[2].SQL()
	okey := other.Tuple.Vals[0].SQL()
	return []string{
		"sid = " + key,
		key + " = sid",
		"S.sid = " + key,
		key + " = S.sid",
		"sid = " + key + " and species = " + species,
		"species = " + species + " and " + key + " = S.sid",
		"(sid = " + key + " and location <> 'nowhere') and species <> " + species,
		"sid = 1",    // int against a string key
		"sid = 1.0",  // float against a string key
		"sid = NULL", // never holds
		"sid = " + key + " or sid = " + okey,
		"not (sid <> " + key + ")",
		"species = " + species,
		"observer = " + x.Tuple.Vals[1].SQL() + " and species <> " + species,
		"",
	}
}

// checkTargets compares, for one store, the targets a DELETE resolves with
// the scan over all explicit statements: for every state (and a path that
// is not one), both signs, both relations and every WHERE shape. UPDATE
// resolves its targets through the same code. It returns how many checks
// found a target.
func checkTargets(t *testing.T, st *store.Store, tr *bsql.Translator) (found int) {
	all, err := st.ExplicitStatements()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("empty store")
	}
	paths := []core.Path{{1, 2, 1, 2, 1, 2}} // a path that is not a state
	if _, ok := st.WidOf(paths[0]); ok {
		t.Fatalf("path %v is a state", paths[0])
	}
	states := st.States()
	wids := slices.Sorted(maps.Keys(states))
	for _, wid := range wids {
		paths = append(paths, states[wid])
	}
	for i, p := range paths {
		for _, rel := range []string{gen.DefaultRel, intRel} {
			for _, s := range []core.Sign{core.Pos, core.Neg} {
				if len(p) == 0 && s == core.Neg {
					continue // BeliefSQL has no negated root target
				}
				// The probe literals come from the target's own statements
				// when it has any, otherwise from anywhere in the store.
				var pool []core.Statement
				for _, x := range all {
					if x.Tuple.Rel == rel && x.Path.Equal(p) && x.Sign == s {
						pool = append(pool, x)
					}
				}
				if len(pool) == 0 {
					for _, x := range all {
						if x.Tuple.Rel == rel {
							pool = append(pool, x)
						}
					}
				}
				if len(pool) == 0 {
					continue
				}
				x, other := pool[i%len(pool)], pool[(i+1)%len(pool)]
				for _, where := range whereShapes(rel, x, other) {
					src := "delete from " + refPrefix(p, s) + rel
					if where != "" {
						src += " where " + where
					}
					ops, err := tr.CompileBatch(src)
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					want := scanTargets(t, st, rel, p, s, where)
					if len(want) > 0 {
						found++
					}
					if len(ops) != len(want) {
						t.Fatalf("%s: %d targets, scan finds %d (%v)", src, len(ops), len(want), want)
					}
					for j, op := range ops {
						if !op.Delete || op.Stmt.String() != want[j].String() || op.Stmt.Sign != want[j].Sign {
							t.Fatalf("%s: target %d is %s, scan finds %s", src, j, op.Stmt, want[j])
						}
					}
				}
			}
		}
	}
	return found
}

// FuzzDMLTargetsAgainstScan checks that DELETE and UPDATE targets, found
// through the world's (wid, key) or (wid) index with the WHERE as
// residual, are exactly the explicit statements a scan of the whole store
// filters by relation, path, sign and WHERE — over gen traces with
// deletes and replaces, key literals of every kind, OR-ed keys, non-key
// predicates, negated targets and paths that are not states.
func FuzzDMLTargetsAgainstScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		st, tr := targetStore(t, seed, 150)
		if checkTargets(t, st, tr) == 0 {
			t.Fatal("no check found a target")
		}
	})
}

// TestDMLTargetsWithKeyVariants pins the shape the random traces may miss:
// one world holding a positive statement and three negated variants of
// the same key, next to other keys.
func TestDMLTargetsWithKeyVariants(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	for _, src := range []string{
		`insert into BELIEF 'Bob' not Sightings values ('s1','Carol','osprey','6-14-08','Lake Forest'), ('s3','Bob','owl','6-14-08','Lake Forest')`,
		`insert into BELIEF 'Bob' Sightings values ('s1','Carol','hawk','6-14-08','Lake Forest')`,
	} {
		if _, err := tr.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		src  string
		want int
	}{
		{`delete from BELIEF 'Bob' not Sightings where sid = 's1'`, 3},
		{`delete from BELIEF 'Bob' not Sightings where sid = 's1' and species = 'osprey'`, 1},
		{`delete from BELIEF 'Bob' not Sightings where sid = 's1' or sid = 's3'`, 4},
		{`delete from BELIEF 'Bob' Sightings where Sightings.sid = 's1'`, 1},
		{`delete from BELIEF 'Bob' not Sightings where sid = 's2'`, 0},
	}
	for _, c := range cases {
		ops, err := tr.CompileBatch(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if len(ops) != c.want {
			t.Errorf("%s: %d targets, want %d", c.src, len(ops), c.want)
		}
	}
}

// TestDMLBadColumnErrorsWhateverTheData: a DELETE or UPDATE naming a
// column its relation lacks fails whether or not the target world holds a
// statement its WHERE could match — Alice's world holds s2, Carol's none,
// and the key s9 matches nothing anywhere.
func TestDMLBadColumnErrorsWhateverTheData(t *testing.T) {
	_, tr := exampleStore(t)
	insertExampleViaBeliefSQL(t, tr)
	forms := []string{
		`delete from BELIEF '%s' Sightings where nosuchcol = 1`,
		`delete from BELIEF '%s' Sightings where sid = 's9' and Other.sid = 's9'`,
		`update BELIEF '%s' Sightings set species = 'x' where nosuchcol = 1`,
		`update BELIEF '%s' Sightings set nosuch = 'x' where sid = 's2'`,
		`update BELIEF '%s' Sightings set species = nosuch where sid = 's9'`,
		`update BELIEF '%s' Sightings set species = 'x' where sid = 's2' and count(sid) = 1`,
	}
	for _, form := range forms {
		for _, user := range []string{"Alice", "Carol"} {
			src := fmt.Sprintf(form, user)
			if _, err := tr.Exec(src); err == nil {
				t.Errorf("%s: no error", src)
			}
		}
	}
}
