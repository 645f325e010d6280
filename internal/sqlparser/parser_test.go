package sqlparser

import (
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/val"
)

func TestTokenize(t *testing.T) {
	toks, err := Tokenize("SELECT a.b, 'it''s', 3.5 FROM t -- comment\n WHERE x <> 2")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "3.5", "FROM", "t", "WHERE", "x", "<>", "2"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Tokenize("a @ b"); err == nil {
		t.Error("bad character accepted")
	}
}

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), w FLOAT, ok BOOL)")
	ct, ok := s.(CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "t" || len(ct.Cols) != 4 {
		t.Fatalf("ct = %+v", ct)
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[0].Type != val.KindInt {
		t.Errorf("col0 = %+v", ct.Cols[0])
	}
	if ct.Cols[1].Type != val.KindString || ct.Cols[2].Type != val.KindFloat || ct.Cols[3].Type != val.KindBool {
		t.Errorf("types wrong: %+v", ct.Cols)
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := mustParse(t, "CREATE INDEX i ON t (a, b)")
	ci := s.(CreateIndex)
	if ci.Name != "i" || ci.Table != "t" || !reflect.DeepEqual(ci.Cols, []string{"a", "b"}) {
		t.Errorf("ci = %+v", ci)
	}
}

func TestParseDrop(t *testing.T) {
	s := mustParse(t, "DROP TABLE t")
	if s.(DropTable).Name != "t" {
		t.Error("drop name wrong")
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	ins := s.(Insert)
	if ins.Table != "t" || !reflect.DeepEqual(ins.Cols, []string{"a", "b"}) {
		t.Fatalf("ins = %+v", ins)
	}
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Fatalf("rows = %+v", ins.Rows)
	}
	if ins.Rows[0][0].(Literal).Val.AsInt() != 1 {
		t.Error("literal 1 wrong")
	}
	if !ins.Rows[1][1].(Literal).Val.IsNull() {
		t.Error("NULL literal wrong")
	}
}

func TestParseSelectBasic(t *testing.T) {
	s := mustParse(t, "SELECT DISTINCT a.x, y AS z FROM t1 AS a, t2 b WHERE a.x = b.y AND y > 3 ORDER BY a.x DESC LIMIT 10")
	sel := s.(Select)
	if !sel.Distinct || len(sel.Items) != 2 || len(sel.From) != 2 {
		t.Fatalf("sel = %+v", sel)
	}
	if sel.From[0].Name() != "a" || sel.From[1].Name() != "b" {
		t.Errorf("from = %+v", sel.From)
	}
	if sel.Items[1].Alias != "z" {
		t.Errorf("alias = %+v", sel.Items[1])
	}
	if sel.Limit != 10 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order/limit = %+v %d", sel.OrderBy, sel.Limit)
	}
	w, ok := sel.Where.(BinaryExpr)
	if !ok || w.Op != "AND" {
		t.Fatalf("where = %#v", sel.Where)
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "SELECT *, t.* FROM t")
	sel := s.(Select)
	if !sel.Items[0].Star || sel.Items[1].TableStar != "t" {
		t.Errorf("items = %+v", sel.Items)
	}
}

func TestParseSelectQualifiedExpr(t *testing.T) {
	// Qualified column followed by a binary tail: not t.*, so an expression.
	s := mustParse(t, "SELECT a.x + 1 FROM t a")
	sel := s.(Select)
	be, ok := sel.Items[0].Expr.(BinaryExpr)
	if !ok || be.Op != "+" {
		t.Fatalf("expr = %#v", sel.Items[0].Expr)
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustParse(t, "SELECT COUNT(*), MAX(d) FROM t GROUP BY k")
	sel := s.(Select)
	fc := sel.Items[0].Expr.(FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Errorf("fc = %+v", fc)
	}
	if len(sel.GroupBy) != 1 {
		t.Errorf("groupby = %+v", sel.GroupBy)
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	d := mustParse(t, "DELETE FROM t WHERE a = 1").(Delete)
	if d.Table != "t" || d.Where == nil {
		t.Errorf("d = %+v", d)
	}
	u := mustParse(t, "UPDATE t SET a = 1, b = 'x' WHERE c IS NOT NULL").(Update)
	if u.Table != "t" || len(u.Set) != 2 {
		t.Fatalf("u = %+v", u)
	}
	if _, ok := u.Where.(IsNull); !ok {
		t.Errorf("where = %#v", u.Where)
	}
}

func TestParseTxn(t *testing.T) {
	stmts, err := ParseAll("BEGIN; COMMIT; ROLLBACK;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %v", stmts)
	}
	if _, ok := stmts[0].(Begin); !ok {
		t.Error("not Begin")
	}
	if _, ok := stmts[1].(Commit); !ok {
		t.Error("not Commit")
	}
	if _, ok := stmts[2].(Rollback); !ok {
		t.Error("not Rollback")
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3")
	sel := s.(Select)
	or := sel.Where.(BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %v", or.Op)
	}
	and := or.R.(BinaryExpr)
	if and.Op != "AND" {
		t.Errorf("rhs = %v", and.Op)
	}
	// Arithmetic precedence.
	s2 := mustParse(t, "SELECT x FROM t WHERE a + b * c = 7")
	cmp := s2.(Select).Where.(BinaryExpr)
	add := cmp.L.(BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("expected + at top of lhs, got %v", add.Op)
	}
	if add.R.(BinaryExpr).Op != "*" {
		t.Error("* should bind tighter than +")
	}
}

func TestParseNotAndParens(t *testing.T) {
	s := mustParse(t, "SELECT x FROM t WHERE NOT (a = 1 OR b = 2)")
	ue := s.(Select).Where.(UnaryExpr)
	if ue.Op != "NOT" {
		t.Fatalf("ue = %+v", ue)
	}
	if ue.X.(BinaryExpr).Op != "OR" {
		t.Error("parenthesized OR lost")
	}
}

func TestParseNegativeNumber(t *testing.T) {
	s := mustParse(t, "SELECT x FROM t WHERE a = -5")
	cmp := s.(Select).Where.(BinaryExpr)
	un := cmp.R.(UnaryExpr)
	if un.Op != "-" || un.X.(Literal).Val.AsInt() != 5 {
		t.Errorf("rhs = %#v", cmp.R)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT x",
		"SELECT x FROM",
		"INSERT t VALUES (1)",
		"CREATE TABLE t (x NOTATYPE)",
		"DELETE t",
		"UPDATE t a = 1",
		"SELECT x FROM t WHERE",
		"FOO BAR",
		"SELECT x FROM t extra garbage (",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u",
		"SELECT x FROM t WHERE EXISTS (u.y = 1)",
		"SELECT x FROM t WHERE EXISTS ()",
		"SELECT x FROM t WHERE EXISTS SELECT 1 FROM u",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	exprs := []string{
		"((a.x = 3) AND (b < 'q'))",
		"((x + (y * 2)) >= 7)",
		"(NOT (a IS NULL))",
		"(c IS NOT NULL)",
		"COUNT(*)",
		"MAX(a.d)",
		"EXISTS (SELECT 1 FROM u AS w, v WHERE ((w.y = t.x) AND ((v.z <> w.y) OR (v.z IS NULL))))",
		"((x = 1) AND EXISTS (SELECT DISTINCT *, w.*, (w.y + 1) AS k FROM u AS w GROUP BY w.y ORDER BY w.y DESC, k LIMIT 3))",
		"EXISTS (SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM v WHERE (v.z = u.y)))",
	}
	for _, src := range exprs {
		sel, err := Parse("SELECT x FROM t WHERE " + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got := sel.(Select).Where.String()
		sel2, err := Parse("SELECT x FROM t WHERE " + got)
		if err != nil {
			t.Fatalf("reparse %q: %v", got, err)
		}
		if sel2.(Select).Where.String() != got {
			t.Errorf("round trip unstable: %q -> %q", got, sel2.(Select).Where.String())
		}
	}
}

func TestParseExists(t *testing.T) {
	s := mustParse(t, "select x from t where x > 1 and exists ( select 1 from u w, v where w.y = t.x and ((v.z = w.y)) )")
	conj := s.(Select).Where.(BinaryExpr)
	ex, ok := conj.R.(Exists)
	if conj.Op != "AND" || !ok {
		t.Fatalf("where = %#v", s.(Select).Where)
	}
	if len(ex.Query.From) != 2 || ex.Query.From[0].Name() != "w" || ex.Query.Limit != -1 {
		t.Errorf("subquery = %+v", ex.Query)
	}
	if w, ok := ex.Query.Where.(BinaryExpr); !ok || w.Op != "AND" {
		t.Errorf("subquery where = %#v", ex.Query.Where)
	}
	// A column merely named exists is still a column.
	if _, ok := mustParse(t, "SELECT x FROM t WHERE exists = 1").(Select).Where.(BinaryExpr).L.(ColumnRef); !ok {
		t.Error("bare identifier exists no longer parses as a column")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select X from T where X = 1 order by X limit 1"); err != nil {
		t.Errorf("lowercase keywords rejected: %v", err)
	}
}

func TestParseAllMultiple(t *testing.T) {
	stmts, err := ParseAll("CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestReservedWordNotAlias(t *testing.T) {
	s := mustParse(t, "SELECT x FROM t WHERE x = 1")
	sel := s.(Select)
	if sel.From[0].Alias != "" || sel.From[0].Name() != "t" {
		t.Errorf("WHERE consumed as alias: %+v", sel.From[0])
	}
}

func TestLiteralSelectItem(t *testing.T) {
	s := mustParse(t, "SELECT 'const', 42 FROM t")
	sel := s.(Select)
	if sel.Items[0].Expr.(Literal).Val.AsString() != "const" {
		t.Error("string literal select item")
	}
	if sel.Items[1].Expr.(Literal).Val.AsInt() != 42 {
		t.Error("int literal select item")
	}
}

func TestDollarAndUnderscoreIdents(t *testing.T) {
	s := mustParse(t, "SELECT _v.wid FROM _e _v")
	sel := s.(Select)
	if sel.From[0].Name() != "_v" {
		t.Errorf("from = %+v", sel.From)
	}
	if !strings.Contains(sel.Items[0].Expr.String(), "_v.wid") {
		t.Error("underscore qualified ref")
	}
}
