package bsql_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/bsql"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// The dialects of the grammar table: plain SQL scripts (sqlparser.ParseAll),
// BeliefSQL scripts (bsql.ParseAll) and single BeliefSQL statements
// (bsql.Parse, what DB.Exec runs).
const (
	sqlDialect = iota
	scriptDialect
	stmtDialect
)

// grammarRows pins the language both front ends accept: each input with the
// AST it parses to, rendered by dumpStatements, or "error". The rows were
// recorded before SQL and BeliefSQL shared one grammar; a row marked
// "changed:" is a deliberate language change and says which.
var grammarRows = []struct {
	dialect int
	src     string
	want    string
}{
	{sqlDialect, "SELECT x FROM t WHERE x = 1",
		"SELECT x FROM t WHERE (x = 1)"},
	{sqlDialect, "SELECT DISTINCT a.x, y AS z FROM t1 AS a, t2 b WHERE a.x = b.y AND y > 3 ORDER BY a.x DESC LIMIT 10",
		"SELECT DISTINCT a.x, y AS z FROM t1 AS a, t2 AS b WHERE ((a.x = b.y) AND (y > 3)) ORDER BY a.x DESC LIMIT 10"},
	{sqlDialect, "SELECT *, t.* FROM t",
		"SELECT *, t.* FROM t"},
	{sqlDialect, "SELECT 'const', 42 FROM t",
		"SELECT 'const', 42 FROM t"},
	{sqlDialect, "SELECT a.b, 'it''s', 3.5 FROM t -- comment\n WHERE x <> 2",
		"SELECT a.b, 'it''s', 3.5 FROM t WHERE (x <> 2)"},
	{sqlDialect, "SELECT x FROM t WHERE NOT (a = 1 OR b = 2)",
		"SELECT x FROM t WHERE (NOT ((a = 1) OR (b = 2)))"},
	{sqlDialect, "SELECT x FROM t WHERE a + b * c = 7",
		"SELECT x FROM t WHERE ((a + (b * c)) = 7)"},
	{sqlDialect, "SELECT x FROM t WHERE a = -5",
		"SELECT x FROM t WHERE (a = (-5))"},
	{sqlDialect, "SELECT COUNT(*), MAX(d) FROM t GROUP BY k",
		"SELECT COUNT(*), MAX(d) FROM t GROUP BY k"},
	{sqlDialect, "SELECT x FROM t WHERE c IS NOT NULL AND d IS NULL",
		"SELECT x FROM t WHERE ((c IS NOT NULL) AND (d IS NULL))"},
	{sqlDialect, "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), w FLOAT, ok BOOL)",
		"sqlparser.CreateTable{Name:t Cols:[{Name:id Type:INT PrimaryKey:true} {Name:name Type:TEXT PrimaryKey:false} {Name:w Type:FLOAT PrimaryKey:false} {Name:ok Type:BOOL PrimaryKey:false}]}"},
	{sqlDialect, "CREATE INDEX i ON t (a, b)",
		"sqlparser.CreateIndex{Name:i Table:t Cols:[a b] Ordered:false}"},
	{sqlDialect, "CREATE ORDERED INDEX oi ON t (ts, k)",
		"sqlparser.CreateIndex{Name:oi Table:t Cols:[ts k] Ordered:true}"},
	{sqlDialect, "SELECT x FROM t WHERE a >= 10 AND a < 20 AND b = 'x'",
		"SELECT x FROM t WHERE (((a >= 10) AND (a < 20)) AND (b = 'x'))"},
	{sqlDialect, "SELECT x FROM t WHERE ts > 5 ORDER BY ts DESC LIMIT 7",
		"SELECT x FROM t WHERE (ts > 5) ORDER BY ts DESC LIMIT 7"},
	{sqlDialect, "EXPLAIN SELECT x FROM t WHERE a = 1 ORDER BY b LIMIT 3",
		"sqlparser.Explain{Query:SELECT x FROM t WHERE (a = 1) ORDER BY b LIMIT 3}"},
	{sqlDialect, "EXPLAIN CREATE INDEX i ON t (a)",
		"error"},
	{sqlDialect, "DROP TABLE t",
		"sqlparser.DropTable{Name:t}"},
	{sqlDialect, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"sqlparser.Insert{Table:t Cols:[a b] Rows:[[1 'x'] [2 NULL]]}"},
	{sqlDialect, "UPDATE t SET a = 1, b = 'x' WHERE c IS NOT NULL",
		"sqlparser.Update{Table:t Set:[{Column:a Value:1} {Column:b Value:'x'}] Where:(c IS NOT NULL)}"},
	{sqlDialect, "DELETE FROM t WHERE a = 1",
		"sqlparser.Delete{Table:t Where:(a = 1)}"},
	{sqlDialect, "BEGIN; COMMIT; ROLLBACK;",
		"sqlparser.Begin{} ; sqlparser.Commit{} ; sqlparser.Rollback{}"},
	{sqlDialect, "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT x FROM t",
		"sqlparser.CreateTable{Name:t Cols:[{Name:x Type:INT PrimaryKey:false}]} ; sqlparser.Insert{Table:t Cols:[] Rows:[[1]]} ; SELECT x FROM t"},
	{sqlDialect, "SELECT _v.wid FROM _e _v",
		"SELECT _v.wid FROM _e AS _v"},
	{sqlDialect, "SELECT x FROM t extra garbage (",
		"error"},
	{sqlDialect, "SELECT x FROM t WHERE",
		"error"},
	{sqlDialect, "",
		""},
	{sqlDialect, ";;;",
		""},
	{sqlDialect, "SELECT 0x10, 1e9, .5, 'unterminated",
		"error"},
	{sqlDialect, "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u w, v WHERE w.y = t.x AND ((v.z = w.y) OR (v.z IS NULL AND w.y IS NULL)))",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u AS w, v WHERE ((w.y = t.x) AND ((v.z = w.y) OR ((v.z IS NULL) AND (w.y IS NULL)))))"},
	{sqlDialect, "SELECT x FROM t WHERE x = 1 AND EXISTS (((SELECT 1 FROM u)))",
		"error"},
	{sqlDialect, "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM v WHERE v.z = u.y AND v.z = t.x))",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM v WHERE ((v.z = u.y) AND (v.z = t.x))))"},
	{sqlDialect, "SELECT x FROM t WHERE NOT EXISTS (SELECT * FROM u AS w WHERE w.y = t.x ORDER BY w.y LIMIT 1) OR EXISTS (SELECT 1 FROM v)",
		"SELECT x FROM t WHERE ((NOT EXISTS (SELECT * FROM u AS w WHERE (w.y = t.x) ORDER BY w.y LIMIT 1)) OR EXISTS (SELECT 1 FROM v))"},
	{sqlDialect, "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.y = t.x",
		"error"},
	{sqlDialect, "SELECT EXISTS (SELECT 1 FROM u) FROM t WHERE exists = 1",
		"SELECT EXISTS (SELECT 1 FROM u) FROM t WHERE (exists = 1)"},
	{scriptDialect, "insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
		"INSERT [] neg=false Sightings as= [['s1' 'Carol' 'bald eagle' '6-14-08' 'Lake Forest']]"},
	{scriptDialect, "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
		"INSERT [user:Bob] neg=true Sightings as= [['s1' 'Carol' 'bald eagle' '6-14-08' 'Lake Forest']]"},
	{scriptDialect, "insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')",
		"INSERT [user:Alice] neg=false Sightings as= [['s2' 'Alice' 'crow' '6-14-08' 'Lake Placid']]"},
	{scriptDialect, "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')",
		"INSERT [user:Bob user:Alice] neg=false Comments as= [['c2' 'black feathers' 's2']]"},
	{scriptDialect, "select S.sid from BELIEF 'Bob' BELIEF 'Alice' Sightings S",
		"SELECT [S.sid] FROM [user:Bob user:Alice] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid from Users as U, BELIEF U.uid not Sightings as S where U.name = 'Bob'",
		"SELECT [S.sid] FROM [] neg=false Users as=U, [ref:U.uid] neg=true Sightings as=S WHERE (U.name = 'Bob') GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select U.name from Users U, BELIEF U.uid not Sightings S where S.sid = 's1'",
		"SELECT [U.name] FROM [] neg=false Users as=U, [ref:U.uid] neg=true Sightings as=S WHERE (S.sid = 's1') GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select count(S.sid) from BELIEF 'Alice' Sightings S where S.species = 'crow'",
		"SELECT [COUNT(S.sid)] FROM [user:Alice] neg=false Sightings as=S WHERE (S.species = 'crow') GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "delete from BELIEF 'Bob' not Sightings where species = 'fish eagle'",
		"DELETE [user:Bob] neg=true Sightings as= WHERE (species = 'fish eagle')"},
	{scriptDialect, "update BELIEF 'Alice' Sightings set species = 'raven' where sid = 's2'",
		"UPDATE [user:Alice] neg=false Sightings as= SET [{Column:species Value:'raven'}] WHERE (sid = 's2')"},
	{scriptDialect, "select S.sid from BELIEF Bob Sightings S",
		"SELECT [S.sid] FROM [user:Bob] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "insert into not Sightings values ('x')",
		"error"},
	{scriptDialect, "select x from",
		"error"},
	{scriptDialect, "select T.k from BELIEF 'Alice' BELIEF 'Alice' Sightings T",
		"SELECT [T.k] FROM [user:Alice user:Alice] neg=false Sightings as=T WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "explain select S.sid from BELIEF 'Alice' Sightings S where S.sid >= 's1' order by S.sid limit 2",
		"EXPLAIN SELECT [S.sid] FROM [user:Alice] neg=false Sightings as=S WHERE (S.sid >= 's1') GROUP [] ORDER [{Expr:S.sid Desc:false}] LIMIT 2"},
	{scriptDialect, "explain select S.species from Sightings S where S.date > '6-01-08' and S.date <= '6-30-08'",
		"EXPLAIN SELECT [S.species] FROM [] neg=false Sightings as=S WHERE ((S.date > '6-01-08') AND (S.date <= '6-30-08')) GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "explain insert into Sightings values ('x','y','z','d','l')",
		"error"},
	{scriptDialect, "select S.sid from BELIEF 'Alice' Sightings S, BELIEF 'Bob' not Sightings N where N.sid = S.sid and N.observer = S.observer and N.species = S.species and N.date = S.date and N.location = S.location",
		"SELECT [S.sid] FROM [user:Alice] neg=false Sightings as=S, [user:Bob] neg=true Sightings as=N WHERE (((((N.sid = S.sid) AND (N.observer = S.observer)) AND (N.species = S.species)) AND (N.date = S.date)) AND (N.location = S.location)) GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select U.name from Users U, BELIEF 'Alice' BELIEF U.uid not Comments N where N.cid = 'c1' and N.text = NULL and N.sid = ('s' + 's2')",
		"SELECT [U.name] FROM [] neg=false Users as=U, [user:Alice ref:U.uid] neg=true Comments as=N WHERE (((N.cid = 'c1') AND (N.text = NULL)) AND (N.sid = ('s' + 's2'))) GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select U.name from Users U where exists (select 1 from _e e where e.uid = U.uid and ((e.wid1 = 0)))",
		"SELECT [U.name] FROM [] neg=false Users as=U WHERE EXISTS (SELECT 1 FROM _e AS e WHERE ((e.uid = U.uid) AND (e.wid1 = 0))) GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid from BELIEF 'Alice' Sightings S where exists (select 1 from Sightings_v v where v.key = S.sid",
		"error"},
	{scriptDialect, "delete from BELIEF 'Bob' Sightings where exists (select 1 from Users U where U.name = species)",
		"DELETE [user:Bob] neg=false Sightings as= WHERE EXISTS (SELECT 1 FROM Users AS U WHERE (U.name = species))"},
	{scriptDialect, "",
		""},
	{sqlDialect, "SELECT x key FROM t",
		"error"},
	{sqlDialect, "SELECT x AS key FROM t AS limit",
		"SELECT x AS key FROM t AS limit"},
	{sqlDialect, "SELECT x ordered FROM t ordered WHERE ordered.x = 1",
		"SELECT x AS ordered FROM t AS ordered WHERE (ordered.x = 1)"},
	{sqlDialect, "SELECT x FROM t where",
		"error"},
	{scriptDialect, "select S.sid as from from BELIEF 'Bob' Sightings as order",
		"SELECT [S.sid AS from] FROM [user:Bob] neg=false Sightings as=order WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid belief from BELIEF 'Bob' Sightings belief",
		"SELECT [S.sid AS belief] FROM [user:Bob] neg=false Sightings as=belief WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid from BELIEF 'Bob' Sightings S limit 3",
		"SELECT [S.sid] FROM [user:Bob] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT 3"},
	{scriptDialect, "select S.sid from BELIEF 'Bob' Sightings limit",
		"error"},
	{sqlDialect, "SELECT t.*, t.x + 1, t.x * 2 = 4 AND t.y OR t.z FROM t",
		"SELECT t.*, (t.x + 1), ((((t.x * 2) = 4) AND t.y) OR t.z) FROM t"},
	{sqlDialect, "SELECT t.* + 1 FROM t",
		"error"},
	{sqlDialect, "SELECT COUNT(t.*) FROM t",
		"error"},
	{sqlDialect, "SELECT key.* FROM t",
		"error"},
	{sqlDialect, "SELECT t.x IS NULL AS n, t.y FROM t",
		"SELECT (t.x IS NULL) AS n, t.y FROM t"},
	{scriptDialect, "select S.*, S.sid || 'x' from BELIEF 'Bob' Sightings S",
		"error"},
	{scriptDialect, "select S.*, S.sid from BELIEF 'Bob' Sightings S order by S.sid desc, S.species asc",
		"SELECT [S.* S.sid] FROM [user:Bob] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [{Expr:S.sid Desc:true} {Expr:S.species Desc:false}] LIMIT -1"},
	{scriptDialect, "select S.sid from BELIEF 'O''Brien' Sightings S",
		"SELECT [S.sid] FROM [user:O'Brien] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid from Users U, BELIEF U.uid BELIEF U.uid Sightings S",
		"SELECT [S.sid] FROM [] neg=false Users as=U, [ref:U.uid ref:U.uid] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid from BELIEF null Sightings S",
		"error"},
	{scriptDialect, "select S.sid from BELIEF U. Sightings S",
		"SELECT [S.sid] FROM [ref:U.Sightings] neg=false S as= WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{scriptDialect, "select S.sid from BELIEF 'Bob' not not Sightings S",
		"error"},
	{scriptDialect, "select S.sid from BELIEF 'Bob' Sightings S, BELIEF 'Bob' Comments S",
		"error"},
	{sqlDialect, "SELECT FROM FROM t WHERE x = 'unterminated",
		"error"},
	{sqlDialect, "SELECT x FROM t WHERE x = 1 @",
		"error"},
	{scriptDialect, "select from from Sightings where x = 'oops",
		"error"},
	{scriptDialect, "select S.sid from BELIEF Sightings S where # = 1",
		"error"},
	// changed: LIMIT takes an integer in BeliefSQL as in SQL (was LIMIT 1, LIMIT 2).
	{scriptDialect, "select S.sid from BELIEF 'Alice' Sightings S limit 1.5",
		"error"},
	{scriptDialect, "select S.sid from BELIEF 'Alice' Sightings S limit 2.9",
		"error"},
	{sqlDialect, "SELECT x FROM t LIMIT 1.5",
		"error"},
	{scriptDialect, "select S.k from BELIEF 'Alice' R S where S.w < 0.00002",
		"SELECT [S.k] FROM [user:Alice] neg=false R as=S WHERE (S.w < 2e-05) GROUP [] ORDER [] LIMIT -1"},
	// changed: exponent literals (were errors). An integral float renders
	// with a decimal point, so it parses back as a float (was 300, 100000
	// and 700, which parse as integers).
	{scriptDialect, "insert into BELIEF 'Alice' R values ('c', 1e-05), ('d', 2.5E+23), ('e', 3e2)",
		"INSERT [user:Alice] neg=false R as= [['c' 1e-05] ['d' 2.5e+23] ['e' 300.0]]"},
	{sqlDialect, "SELECT 1e5, 2.5e-3, 7E+2, 1e FROM t WHERE x < 1e-05",
		"SELECT 100000.0, 0.0025, 700.0, 1 AS e FROM t WHERE (x < 1e-05)"},
	{scriptDialect, "select distinct S.sid from BELIEF 'Alice' Sightings S",
		"error"},
	{scriptDialect, "insert into Sightings (sid) values ('x')",
		"error"},
	{scriptDialect, "select S.sid from Sightings S; insert into Sightings values ('a'); ;",
		"SELECT [S.sid] FROM [] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1 ; INSERT [] neg=false Sightings as= [['a']]"},
	{scriptDialect, "select S.sid from Sightings S select",
		"error"},
	{scriptDialect, "create table t (x int)",
		"error"},
	{scriptDialect, "begin",
		"error"},
	// changed: an exponent literal (was the number 1 aliased e9).
	{sqlDialect, "SELECT 1e9 FROM t",
		"SELECT 1e+09 FROM t"},
	{stmtDialect, "select S.sid from Sightings S;",
		"SELECT [S.sid] FROM [] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	// changed: one script loop — Parse skips empty statements as SQL's
	// Parse does (were errors).
	{stmtDialect, ";select S.sid from Sightings S",
		"SELECT [S.sid] FROM [] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{stmtDialect, "select S.sid from Sightings S;;",
		"SELECT [S.sid] FROM [] neg=false Sightings as=S WHERE <nil> GROUP [] ORDER [] LIMIT -1"},
	{stmtDialect, "select S.sid from Sightings S; select S.sid from Sightings S",
		"error"},
	{stmtDialect, "",
		"error"},
}

func TestGrammarUnchanged(t *testing.T) {
	for _, r := range grammarRows {
		got, err := dumpStatements(r.dialect, r.src)
		if err != nil {
			got = "error"
		}
		if got != r.want {
			t.Errorf("dialect %d, %q:\n got %s\nwant %s", r.dialect, r.src, got, r.want)
		}
	}
}

// dumpStatements parses src in a dialect and renders every field of the
// result, relation references field by field so that the rendering does
// not depend on BeliefRef.String.
func dumpStatements(dialect int, src string) (string, error) {
	var parts []string
	switch dialect {
	case sqlDialect:
		stmts, err := sqlparser.ParseAll(src)
		if err != nil {
			return "", err
		}
		for _, s := range stmts {
			if sel, ok := s.(sqlparser.Select); ok {
				parts = append(parts, sel.String())
			} else {
				parts = append(parts, fmt.Sprintf("%T%+v", s, s))
			}
		}
	case scriptDialect:
		stmts, err := bsql.ParseAll(src)
		if err != nil {
			return "", err
		}
		for _, s := range stmts {
			parts = append(parts, dumpBeliefStmt(s))
		}
	case stmtDialect:
		s, err := bsql.Parse(src)
		if err != nil {
			return "", err
		}
		parts = append(parts, dumpBeliefStmt(s))
	}
	return strings.Join(parts, " ; "), nil
}

func dumpBeliefStmt(st bsql.Statement) string {
	switch s := st.(type) {
	case bsql.Select:
		return dumpBeliefSelect(s)
	case bsql.Explain:
		return "EXPLAIN " + dumpBeliefSelect(s.Query)
	case bsql.Insert:
		return fmt.Sprintf("INSERT %s %v", dumpBeliefRef(s.Target), s.Rows)
	case bsql.Delete:
		return fmt.Sprintf("DELETE %s WHERE %v", dumpBeliefRef(s.Target), s.Where)
	case bsql.Update:
		return fmt.Sprintf("UPDATE %s SET %+v WHERE %v", dumpBeliefRef(s.Target), s.Set, s.Where)
	}
	return fmt.Sprintf("unknown %T", st)
}

func dumpBeliefSelect(s bsql.Select) string {
	refs := make([]string, len(s.From))
	for i, r := range s.From {
		refs[i] = dumpBeliefRef(r)
	}
	return fmt.Sprintf("SELECT %v FROM %s WHERE %v GROUP %v ORDER %+v LIMIT %d",
		s.Items, strings.Join(refs, ", "), s.Where, s.GroupBy, s.OrderBy, s.Limit)
}

func dumpBeliefRef(r bsql.BeliefRef) string {
	var path []string
	for _, e := range r.Path {
		if e.IsRef {
			path = append(path, "ref:"+e.Ref.String())
		} else {
			path = append(path, "user:"+e.Literal)
		}
	}
	return fmt.Sprintf("%v neg=%v %s as=%s", path, r.Negated, r.Table, r.Alias)
}

// TestExponentLiterals: val.Value.SQL writes floats in 'g' format (1e-05,
// 1e+23), so the translated SQL of a query, the EXISTS of a negated item
// bound to such a literal, and a rendered INSERT must all lex it back.
func TestExponentLiterals(t *testing.T) {
	st, err := store.Open([]store.Relation{{Name: "R", Columns: []store.Column{
		{Name: "k", Type: val.KindString}, {Name: "w", Type: val.KindFloat},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"Alice", "Bob"} {
		if _, err := st.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	tr := bsql.NewTranslator(st)
	if _, err := tr.ExecScript(`
		insert into BELIEF 'Alice' R values ('a', 0.00001);
		insert into BELIEF 'Alice' R values ('b', 0.5);
		insert into BELIEF 'Bob' R values ('b', 0.5)`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		want  []string
	}{
		{`select S.k from BELIEF 'Alice' R S where S.w < 0.00002`, []string{"a"}},
		// Bob's ('b', 0.5) makes ('b', 0.00001) an unstated negative of his.
		{`select S.k from BELIEF 'Alice' R S, BELIEF 'Bob' not R N where N.k = S.k and N.w = 0.00001`, []string{"b"}},
	} {
		stmt, err := bsql.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.ExecStmt(stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := rowStrings(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.query, got, c.want)
		}
	}

	ins, err := bsql.Parse(`insert into BELIEF 'Alice' R values ('c', 0.00003)`)
	if err != nil {
		t.Fatal(err)
	}
	text := bsql.Render(ins)
	again, err := bsql.Parse(text)
	if err != nil {
		t.Fatalf("rendered INSERT %q does not parse: %v", text, err)
	}
	if got := bsql.Render(again); got != text {
		t.Errorf("Render(Parse(%q)) = %q", text, got)
	}
}

// TestLimitIsAnInteger: LIMIT takes an integer in BeliefSQL as in SQL; a
// fractional count is refused, not truncated.
func TestLimitIsAnInteger(t *testing.T) {
	for _, q := range []string{
		`select S.sid from BELIEF 'Alice' Sightings S limit 1.5`,
		`select S.sid from BELIEF 'Alice' Sightings S limit 2.9`,
	} {
		if _, err := bsql.Parse(q); err == nil || !strings.Contains(err.Error(), "bad LIMIT value") {
			t.Errorf("%s: err = %v, want bad LIMIT value", q, err)
		}
	}
	s, err := bsql.Parse(`select S.sid from BELIEF 'Alice' Sightings S limit 2`)
	if err != nil || s.(bsql.Select).Limit != 2 {
		t.Errorf("limit 2: %+v, %v", s, err)
	}
}

// TestRefusalsNameTheRule: what SQL has and Fig. 1 does not is refused
// with the rule, not with whatever token the parser happened to stop at.
func TestRefusalsNameTheRule(t *testing.T) {
	for _, c := range []struct{ src, rule string }{
		{`select distinct S.sid from BELIEF 'Alice' Sightings S`, "SELECT DISTINCT"},
		{`insert into Sightings (sid) values ('x')`, "INSERT names no columns"},
	} {
		_, err := bsql.Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.rule) || !errors.Is(err, bsql.ErrParse) {
			t.Errorf("%s: err = %v, want a parse error naming %q", c.src, err, c.rule)
		}
	}
}

// TestBeliefRefString: a belief reference has one rendering, the parseable
// one — error messages quote what the user could have typed.
func TestBeliefRefString(t *testing.T) {
	s, err := bsql.Parse(`select S.k from Users U, BELIEF 'O''Brien' BELIEF U.uid not R as S`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.(bsql.Select).From[1].String(), `BELIEF 'O''Brien' BELIEF U.uid NOT R AS S`; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
