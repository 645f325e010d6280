package bsql_test

import (
	"reflect"
	"testing"

	"beliefdb/internal/bsql"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// fuzzStore builds the small Sightings/Comments schema of the paper's
// running example with two registered users.
func fuzzStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open([]store.Relation{
		{Name: "Sightings", Columns: []store.Column{
			{Name: "sid", Type: val.KindString},
			{Name: "observer", Type: val.KindString},
			{Name: "species", Type: val.KindString},
			{Name: "date", Type: val.KindString},
			{Name: "location", Type: val.KindString},
		}},
		{Name: "Comments", Columns: []store.Column{
			{Name: "cid", Type: val.KindString},
			{Name: "text", Type: val.KindString},
			{Name: "sid", Type: val.KindString},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"Alice", "Bob"} {
		if _, err := st.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// FuzzBeliefSQL checks that the BeliefSQL front end never panics: any input
// either fails to parse (an error, not a crash), and anything that parses
// must execute against a fresh belief database without panicking — errors
// (unknown users, unknown relations, conflicts, arity mismatches) are fine.
// A parsed statement must also survive the router's hop: its rendering
// parses back to a statement with the same rendering. A SELECT or EXPLAIN
// that translates must translate to an AST that its own rendering
// (TranslateSelect's text) parses back to, so DB.Translate shows exactly
// what the executor runs.
func FuzzBeliefSQL(f *testing.F) {
	seeds := []string{
		`insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')`,
		`insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')`,
		`insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')`,
		`insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')`,
		`select S.sid from BELIEF 'Bob' BELIEF 'Alice' Sightings S`,
		`select S.sid from Users as U, BELIEF U.uid not Sightings as S where U.name = 'Bob'`,
		`select U.name from Users U, BELIEF U.uid not Sightings S where S.sid = 's1'`,
		`select count(S.sid) from BELIEF 'Alice' Sightings S where S.species = 'crow'`,
		`delete from BELIEF 'Bob' not Sightings where species = 'fish eagle'`,
		`update BELIEF 'Alice' Sightings set species = 'raven' where sid = 's2'`,
		`select S.sid from BELIEF Bob Sightings S`,
		`insert into not Sightings values ('x')`,
		`select x from`,
		`select T.k from BELIEF 'Alice' BELIEF 'Alice' Sightings T`,
		`explain select S.sid from BELIEF 'Alice' Sightings S where S.sid >= 's1' order by S.sid limit 2`,
		`explain select S.species from Sightings S where S.date > '6-01-08' and S.date <= '6-30-08'`,
		`explain insert into Sightings values ('x','y','z','d','l')`,
		`select S.sid from BELIEF 'Alice' Sightings S, BELIEF 'Bob' not Sightings N where N.sid = S.sid and N.observer = S.observer and N.species = S.species and N.date = S.date and N.location = S.location`,
		`select U.name from Users U, BELIEF 'Alice' BELIEF U.uid not Comments N where N.cid = 'c1' and N.text = NULL and N.sid = ('s' + 's2')`,
		`select U.name from Users U where exists (select 1 from _e e where e.uid = U.uid and ((e.wid1 = 0)))`,
		`select S.sid from BELIEF 'Alice' Sightings S where exists (select 1 from Sightings_v v where v.key = S.sid`,
		`delete from BELIEF 'Bob' Sightings where exists (select 1 from Users U where U.name = species)`,
		``,
		`select S.sid from BELIEF 'Alice' Sightings S where S.date < 1e-05 limit 3`,
		`select S.observer, count(*) AS n from BELIEF 'Alice' Sightings S group by S.observer order by n desc limit 5`,
		`select * from Users U, BELIEF U.uid Sightings`,
		`select S.sid, 2.0 * 3 AS six from BELIEF 'Alice' Sightings S, BELIEF 'Bob' not Sightings N where N.sid = S.sid and N.observer = 1.0 and N.species = S.species and N.date = S.date and N.location = S.location order by six`,
		`insert into BELIEF 'O''Brien' not Sightings values ('s3', 2.5E+23, -1e-7, 'x', 'y')`,
		`insert into BELIEF 'Alice' Sightings values ('s4', 0.00003, 'c', 'd', 'e')`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := bsql.Parse(src)
		if err != nil {
			return
		}
		text := bsql.Render(stmt)
		again, err := bsql.Parse(text)
		if err != nil {
			t.Fatalf("Render(Parse(%q)) = %q does not parse: %v", src, text, err)
		}
		if got := bsql.Render(again); got != text {
			t.Fatalf("render of %q is not stable: %q -> %q", src, text, got)
		}
		st := fuzzStore(t)
		tr := bsql.NewTranslator(st)
		sel, isSel := stmt.(bsql.Select)
		if ex, ok := stmt.(bsql.Explain); ok {
			sel, isSel = ex.Query, true
		}
		if ast, err := tr.SelectAST(sel); isSel && err == nil {
			sql, err := tr.TranslateSelect(sel)
			if err != nil {
				t.Fatalf("%q: the AST translates but TranslateSelect fails: %v", src, err)
			}
			back, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("translation %q of %q does not parse: %v", sql, src, err)
			}
			if !reflect.DeepEqual(back, ast) {
				t.Fatalf("translation %q of %q does not parse back to the AST the executor runs", sql, src)
			}
		}
		// Execution may error but must not panic; a second execution on the
		// same store must not panic either (DML leaves consistent state).
		if _, err := tr.ExecStmt(stmt); err != nil {
			return
		}
		if _, err := tr.ExecStmt(stmt); err != nil {
			// A repeated statement may legitimately conflict with itself
			// (e.g. inserting Pos after Neg); only panics are bugs.
			return
		}
	})
}
