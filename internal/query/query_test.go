package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"beliefdb/internal/engine"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// exec is a test helper running SQL against a catalog.
func exec(t *testing.T, cat *engine.Catalog, sql string) *Result {
	t.Helper()
	res, err := execErr(cat, sql)
	if err != nil {
		t.Fatalf("exec(%q): %v", sql, err)
	}
	return res
}

// execErr runs a script against cat. Run only reads and creates indexes,
// so CREATE TABLE and INSERT … VALUES of literals build the fixture tables
// straight through the engine; every other statement goes to Run.
func execErr(cat *engine.Catalog, sql string) (*Result, error) {
	stmts, err := sqlparser.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, s := range stmts {
		switch s := s.(type) {
		case sqlparser.CreateTable:
			res, err = &Result{}, createTable(cat, s)
		case sqlparser.Insert:
			res, err = &Result{}, insertLiterals(cat, s)
		default:
			res, err = Run(cat, s)
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func createTable(cat *engine.Catalog, s sqlparser.CreateTable) error {
	cols := make([]engine.Column, len(s.Cols))
	pk := -1
	for i, c := range s.Cols {
		cols[i] = engine.Column{Name: c.Name, Type: c.Type}
		if c.PrimaryKey {
			pk = i
		}
	}
	schema, err := engine.NewSchema(cols)
	if err != nil {
		return err
	}
	_, err = cat.CreateTable(s.Name, schema, pk)
	return err
}

// insertLiterals inserts rows of constant expressions in column order.
func insertLiterals(cat *engine.Catalog, s sqlparser.Insert) error {
	t := cat.Table(s.Table)
	if t == nil || len(s.Cols) > 0 {
		return fmt.Errorf("fixture insert into %s: no such table, or a column list", s.Table)
	}
	for _, exprs := range s.Rows {
		row := make([]val.Value, len(exprs))
		for i, e := range exprs {
			ce, err := compileExpr(e, relSchema{})
			if err != nil {
				return err
			}
			if row[i], err = ce(nil); err != nil {
				return err
			}
		}
		if _, err := t.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

func fixture(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE users (uid INT PRIMARY KEY, name TEXT);
		CREATE TABLE orders (oid INT PRIMARY KEY, uid INT, amount FLOAT, item TEXT);
		CREATE INDEX orders_uid ON orders (uid);
		INSERT INTO users VALUES (1, 'alice'), (2, 'bob'), (3, 'carol');
		INSERT INTO orders VALUES
			(10, 1, 5.0, 'apple'),
			(11, 1, 7.5, 'pear'),
			(12, 2, 1.0, 'fig'),
			(13, 3, 2.25, 'apple');
	`)
	return cat
}

// rowsAsStrings renders result rows for order-insensitive comparison.
func rowsAsStrings(res *Result) []string {
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

func TestSelectAll(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT * FROM users")
	if !reflect.DeepEqual(res.Columns, []string{"uid", "name"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectWhere(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT name FROM users WHERE uid = 2")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"bob"}) {
		t.Errorf("got %v", got)
	}
	res = exec(t, cat, "SELECT name FROM users WHERE uid <> 2 AND uid < 3")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Errorf("got %v", got)
	}
}

func TestSelectJoin(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, `
		SELECT u.name, o.item FROM users u, orders o
		WHERE u.uid = o.uid AND o.amount > 2.0`)
	want := []string{"alice|apple", "alice|pear", "carol|apple"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSelfJoin(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, `
		SELECT a.oid, b.oid FROM orders a, orders b
		WHERE a.item = b.item AND a.oid < b.oid`)
	want := []string{"10|13"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestThreeWayJoinWithDisjunction(t *testing.T) {
	cat := fixture(t)
	// Shape of the Algorithm 1 translation: join chain plus nested OR.
	res := exec(t, cat, `
		SELECT DISTINCT u.name FROM users u, orders o, orders o2
		WHERE u.uid = o.uid AND o2.uid = u.uid
		AND (o.item = 'apple' AND o2.item <> 'apple' OR o.item = 'fig')`)
	want := []string{"alice", "bob"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCrossJoin(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT u.uid, o.oid FROM users u, orders o")
	if len(res.Rows) != 12 {
		t.Errorf("cross product size = %d", len(res.Rows))
	}
}

func TestDistinct(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT DISTINCT item FROM orders")
	if len(res.Rows) != 3 {
		t.Errorf("distinct items = %v", rowsAsStrings(res))
	}
}

func TestOrderByLimit(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT item, amount FROM orders ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "pear" || res.Rows[1][0].AsString() != "apple" {
		t.Errorf("rows = %v", res.Rows)
	}
	// ORDER BY on a non-projected column.
	res = exec(t, cat, "SELECT item FROM orders ORDER BY amount")
	if res.Rows[0][0].AsString() != "fig" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT COUNT(*), MIN(amount), MAX(amount), SUM(amount), AVG(amount) FROM orders")
	r := res.Rows[0]
	if r[0].AsInt() != 4 || r[1].AsFloat() != 1.0 || r[2].AsFloat() != 7.5 {
		t.Errorf("row = %v", r)
	}
	if r[3].AsFloat() != 15.75 || r[4].AsFloat() != 15.75/4 {
		t.Errorf("sum/avg = %v", r)
	}
}

func TestGroupBy(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, `
		SELECT u.name, COUNT(*) AS n FROM users u, orders o
		WHERE u.uid = o.uid GROUP BY u.name ORDER BY n DESC, u.name`)
	if !reflect.DeepEqual(res.Columns, []string{"name", "n"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	want := []string{"alice|2", "bob|1", "carol|1"}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r[0].String() + "|" + r[1].String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestAggregateOverEmpty(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT COUNT(*) FROM orders WHERE amount > 100")
	if res.Rows[0][0].AsInt() != 0 {
		t.Errorf("count = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT MAX(amount) FROM orders WHERE amount > 100")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("max = %v", res.Rows)
	}
}

func TestIsNullHandling(t *testing.T) {
	cat := fixture(t)
	exec(t, cat, "INSERT INTO orders VALUES (14, 1, NULL, NULL)")
	res := exec(t, cat, "SELECT oid FROM orders WHERE item IS NULL")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"14"}) {
		t.Errorf("got %v", got)
	}
	res = exec(t, cat, "SELECT COUNT(item) FROM orders")
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("COUNT(col) should skip NULLs: %v", res.Rows)
	}
	// Comparisons with NULL are never satisfied.
	res = exec(t, cat, "SELECT oid FROM orders WHERE amount > 0 OR amount <= 0")
	if len(res.Rows) != 4 {
		t.Errorf("NULL compare leaked: %v", rowsAsStrings(res))
	}
}

func TestArithmetic(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT amount * 2 + 1 FROM orders WHERE oid = 10")
	if res.Rows[0][0].AsFloat() != 11.0 {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := execErr(cat, "SELECT 1/0 FROM users"); err == nil {
		t.Error("division by zero succeeded")
	}
}

func TestErrors(t *testing.T) {
	cat := fixture(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT zzz FROM users",
		"SELECT u.zzz FROM users u",
		"SELECT name FROM users u, orders u",
		"CREATE INDEX i ON missing (x)",
		"SELECT uid FROM users, orders", // ambiguous unqualified column
		"SELECT MAX(MAX(uid)) FROM users",
	}
	for _, sql := range bad {
		if _, err := execErr(cat, sql); err == nil {
			t.Errorf("exec(%q) succeeded, want error", sql)
		}
	}
	// Run reads and creates indexes; it writes no row and no table.
	for _, sql := range []string{
		"INSERT INTO users VALUES (4, 'dave')",
		"UPDATE users SET name = 'x'",
		"DELETE FROM users",
		"CREATE TABLE notes (x INT)",
		"DROP TABLE users",
		"BEGIN", "COMMIT", "ROLLBACK",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cat, stmt); err == nil || !strings.Contains(err.Error(), "unsupported statement") {
			t.Errorf("Run(%q) = %v, want an unsupported statement", sql, err)
		}
	}
	if res := exec(t, cat, "SELECT COUNT(*) FROM users"); res.Rows[0][0].AsInt() != 3 {
		t.Errorf("refused statements changed users: %v", res.Rows)
	}
}

func TestConstantPredicate(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT name FROM users WHERE 1 = 2")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT name FROM users WHERE 1 = 1")
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLiteralProjection(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT 'x', uid FROM users WHERE uid = 1")
	if res.Rows[0][0].AsString() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// naiveSelect evaluates a conjunctive filter over the full cross product,
// as a reference for the planner.
func naiveJoin(tables [][][]val.Value, pred func(row []val.Value) bool) [][]val.Value {
	rows := [][]val.Value{{}}
	for _, tb := range tables {
		var next [][]val.Value
		for _, acc := range rows {
			for _, r := range tb {
				row := append(append([]val.Value{}, acc...), r...)
				next = append(next, row)
			}
		}
		rows = next
	}
	var out [][]val.Value
	for _, r := range rows {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Property: for random small databases and random equi-join + filter
// queries, the planner agrees with naive cross-product evaluation.
func TestQuickPlannerAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cat := engine.NewCatalog()
		na := r.Intn(12) + 1
		nb := r.Intn(12) + 1
		sqlSetup := "CREATE TABLE a (x INT, y INT); CREATE TABLE b (u INT, v INT);"
		if r.Intn(2) == 0 {
			sqlSetup += " CREATE INDEX b_u ON b (u);"
		}
		if _, err := execErr(cat, sqlSetup); err != nil {
			t.Fatal(err)
		}
		var aRows, bRows [][]val.Value
		for i := 0; i < na; i++ {
			x, y := int64(r.Intn(4)), int64(r.Intn(4))
			aRows = append(aRows, []val.Value{val.Int(x), val.Int(y)})
			execMust(cat, fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", x, y))
		}
		for i := 0; i < nb; i++ {
			u, v := int64(r.Intn(4)), int64(r.Intn(4))
			bRows = append(bRows, []val.Value{val.Int(u), val.Int(v)})
			execMust(cat, fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", u, v))
		}
		c := int64(r.Intn(4))
		sql := fmt.Sprintf("SELECT a.x, a.y, b.u, b.v FROM a, b WHERE a.x = b.u AND (a.y > %d OR b.v = %d)", c, c)
		res, err := execErr(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		matches := func(row []val.Value) bool {
			return row[0].AsInt() == row[2].AsInt() && (row[1].AsInt() > c || row[3].AsInt() == c)
		}
		if !multisetEqual(res.Rows, naiveJoin([][][]val.Value{aRows, bRows}, matches)) {
			return false
		}
		// The same predicate as a correlated EXISTS keeps each row of a
		// with at least one partner, once.
		res, err = execErr(cat, fmt.Sprintf(
			"SELECT a.x, a.y FROM a WHERE EXISTS (SELECT 1 FROM b WHERE a.x = b.u AND (a.y > %d OR b.v = %d))", c, c))
		if err != nil {
			t.Fatal(err)
		}
		var semi [][]val.Value
		for _, a := range aRows {
			if len(naiveJoin([][][]val.Value{{a}, bRows}, matches)) > 0 {
				semi = append(semi, a)
			}
		}
		if !multisetEqual(res.Rows, semi) {
			return false
		}
		if err := joinAgainstNaive(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// joinAgainstNaive checks a random three-table join of the point-read
// shape against naiveJoin: c is bound by a literal on an indexed column, b
// joins both a and c, and a composite index on b covering both join
// columns is present or not. The FROM order, a literal on a and a filter
// on b are drawn too, so the planner's step choice sees every ordering of
// cheap and expensive candidates. It describes the first disagreement.
func joinAgainstNaive(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()
	ddl := "CREATE TABLE a (x INT, y INT); CREATE TABLE b (u INT, v INT, w INT); CREATE TABLE c (k INT, p INT); CREATE INDEX c_k ON c (k);"
	for _, ix := range []string{"CREATE INDEX b_uw ON b (u, w);", "CREATE INDEX b_u ON b (u);", "CREATE INDEX b_w ON b (w);", "CREATE INDEX a_y ON a (y);"} {
		if r.Intn(2) == 0 {
			ddl += " " + ix
		}
	}
	if _, err := execErr(cat, ddl); err != nil {
		return err
	}
	tables := map[string][][]val.Value{}
	for _, tb := range []struct {
		name  string
		arity int
	}{{"a", 2}, {"b", 3}, {"c", 2}} {
		for i, n := 0, r.Intn(12); i < n; i++ {
			row := make([]val.Value, tb.arity)
			lits := make([]string, tb.arity)
			for j := range row {
				v := int64(r.Intn(4))
				row[j], lits[j] = val.Int(v), fmt.Sprint(v)
			}
			tables[tb.name] = append(tables[tb.name], row)
			execMust(cat, fmt.Sprintf("INSERT INTO %s VALUES (%s)", tb.name, strings.Join(lits, ", ")))
		}
	}
	k, ay, bv := int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(4))
	withAY, withBV := r.Intn(2) == 0, r.Intn(2) == 0
	conds := []string{fmt.Sprintf("c.k = %d", k), "b.u = a.x", "c.p = b.w"}
	if withAY {
		conds = append(conds, fmt.Sprintf("a.y = %d", ay))
	}
	if withBV {
		conds = append(conds, fmt.Sprintf("b.v > %d", bv))
	}
	r.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	from := []string{"a", "b", "c"}
	r.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	sql := fmt.Sprintf("SELECT a.x, a.y, b.u, b.v, b.w, c.k, c.p FROM %s WHERE %s",
		strings.Join(from, ", "), strings.Join(conds, " AND "))
	res, err := execErr(cat, sql)
	if err != nil {
		return fmt.Errorf("%s: %v", sql, err)
	}
	want := naiveJoin([][][]val.Value{tables["a"], tables["b"], tables["c"]}, func(row []val.Value) bool {
		x, y, u, v, w, ck, p := row[0].AsInt(), row[1].AsInt(), row[2].AsInt(), row[3].AsInt(), row[4].AsInt(), row[5].AsInt(), row[6].AsInt()
		return ck == k && u == x && p == w && (!withAY || y == ay) && (!withBV || v > bv)
	})
	if !multisetEqual(res.Rows, want) {
		return fmt.Errorf("%s [%s]: planner %d rows, naive %d", sql, ddl, len(res.Rows), len(want))
	}
	return nil
}

func FuzzJoinAgainstNaive(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 18} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := joinAgainstNaive(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// sinksAgainstNaive draws a random join of a, b and c that reaches every
// step kind — b and c each joined by an index join (an edge to an indexed
// column), a hash join (an edge to a column without one) or a cross join
// (no edge), c perhaps by two edges — with an optional residual over all
// three bindings and an optional correlated EXISTS over d. It runs the
// join under DISTINCT
// projection, GROUP BY with COUNT and SUM, and ORDER BY every projected
// column with LIMIT k, and compares the answers with naive evaluation as a
// set, as groups and in exact order. It describes the first disagreement.
func sinksAgainstNaive(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()
	ddl := `CREATE TABLE a (x INT, y INT); CREATE TABLE b (u INT, v INT, w INT); CREATE TABLE c (k INT, p INT);
		CREATE TABLE d (q INT, s INT); CREATE INDEX b_u ON b (u); CREATE INDEX c_k ON c (k); CREATE INDEX d_q ON d (q);`
	if _, err := execErr(cat, ddl); err != nil {
		return err
	}
	tables := map[string][][]val.Value{}
	for _, tb := range []struct {
		name  string
		arity int
	}{{"a", 2}, {"b", 3}, {"c", 2}, {"d", 2}} {
		for i, n := 0, r.Intn(10); i < n; i++ {
			row := make([]val.Value, tb.arity)
			lits := make([]string, tb.arity)
			for j := range row {
				v := int64(r.Intn(4))
				row[j], lits[j] = val.Int(v), fmt.Sprint(v)
			}
			tables[tb.name] = append(tables[tb.name], row)
			execMust(cat, fmt.Sprintf("INSERT INTO %s VALUES (%s)", tb.name, strings.Join(lits, ", ")))
		}
	}
	// A joined row is a.x a.y b.u b.v b.w c.k c.p.
	var conds []string
	var preds []func(row []val.Value) bool
	eq := func(cond string, i, j int) {
		conds = append(conds, cond)
		preds = append(preds, func(row []val.Value) bool { return row[i].AsInt() == row[j].AsInt() })
	}
	switch r.Intn(3) {
	case 0:
		eq("b.u = a.x", 2, 0)
	case 1:
		eq("a.y = b.v", 1, 3)
	}
	switch r.Intn(4) {
	case 0:
		eq("c.k = b.w", 5, 4)
	case 1:
		eq("a.x = c.p", 0, 6)
	case 2: // the probe on c_k leaves c.p = a.x to a check
		eq("c.k = b.w", 5, 4)
		eq("a.x = c.p", 0, 6)
	}
	if r.Intn(2) == 0 {
		conds = append(conds, "a.y + b.w > c.p")
		preds = append(preds, func(row []val.Value) bool { return row[1].AsInt()+row[4].AsInt() > row[6].AsInt() })
	}
	if r.Intn(2) == 0 {
		conds = append(conds, "EXISTS (SELECT 1 FROM d WHERE d.q = b.v AND d.s <> c.k)")
		preds = append(preds, func(row []val.Value) bool {
			for _, d := range tables["d"] {
				if d[0].AsInt() == row[3].AsInt() && d[1].AsInt() != row[5].AsInt() {
					return true
				}
			}
			return false
		})
	}
	r.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	from := []string{"a", "b", "c"}
	r.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	body := " FROM " + strings.Join(from, ", ")
	if len(conds) > 0 {
		body += " WHERE " + strings.Join(conds, " AND ")
	}
	joined := naiveJoin([][][]val.Value{tables["a"], tables["b"], tables["c"]}, func(row []val.Value) bool {
		for _, p := range preds {
			if !p(row) {
				return false
			}
		}
		return true
	})
	pick := func(row []val.Value, cols ...int) []val.Value {
		out := make([]val.Value, len(cols))
		for i, c := range cols {
			out[i] = row[c]
		}
		return out
	}

	// DISTINCT projection, as a set.
	sql := "SELECT DISTINCT a.y, b.v, c.p" + body
	res, err := execErr(cat, sql)
	if err != nil {
		return fmt.Errorf("%s: %v", sql, err)
	}
	var want [][]val.Value
	for _, row := range joined {
		want = append(want, pick(row, 1, 3, 6))
	}
	if want = DedupeRows(want); !multisetEqual(res.Rows, want) {
		return fmt.Errorf("%s: %d rows, naive %d", sql, len(res.Rows), len(want))
	}

	// GROUP BY with COUNT and SUM, as groups.
	sql = "SELECT a.y, COUNT(*), SUM(b.w)" + body + " GROUP BY a.y"
	if res, err = execErr(cat, sql); err != nil {
		return fmt.Errorf("%s: %v", sql, err)
	}
	groups := map[int64][2]int64{}
	for _, row := range joined {
		g := groups[row[1].AsInt()]
		groups[row[1].AsInt()] = [2]int64{g[0] + 1, g[1] + row[4].AsInt()}
	}
	if len(res.Rows) != len(groups) {
		return fmt.Errorf("%s: %d groups, naive %d", sql, len(res.Rows), len(groups))
	}
	for _, row := range res.Rows {
		if g := groups[row[0].AsInt()]; row[1].AsInt() != g[0] || row[2].AsInt() != g[1] {
			return fmt.Errorf("%s: group %v, naive count %d sum %d", sql, row, g[0], g[1])
		}
	}

	// ORDER BY every projected column with LIMIT k, in exact order.
	desc := []bool{r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0}
	k := r.Intn(6)
	order := make([]string, 3)
	for i, col := range []string{"a.x", "b.v", "c.p"} {
		order[i] = col
		if desc[i] {
			order[i] += " DESC"
		}
	}
	sql = fmt.Sprintf("SELECT a.x, b.v, c.p%s ORDER BY %s LIMIT %d", body, strings.Join(order, ", "), k)
	if res, err = execErr(cat, sql); err != nil {
		return fmt.Errorf("%s: %v", sql, err)
	}
	want = nil
	for _, row := range joined {
		want = append(want, pick(row, 0, 3, 6))
	}
	sort.SliceStable(want, func(i, j int) bool {
		for c, d := range desc {
			if x, y := want[i][c].AsInt(), want[j][c].AsInt(); x != y {
				return (x < y) != d
			}
		}
		return false
	})
	want = want[:min(k, len(want))]
	if !reflect.DeepEqual(rowKeys(res.Rows), rowKeys(want)) {
		return fmt.Errorf("%s:\n got   %v\n naive %v", sql, rowKeys(res.Rows), rowKeys(want))
	}
	return nil
}

func rowKeys(rows [][]val.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = val.RowKey(r)
	}
	return out
}

func TestQuickSinksAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		if err := sinksAgainstNaive(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func FuzzSinksAgainstNaive(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 18} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := sinksAgainstNaive(seed); err != nil {
			t.Fatal(err)
		}
	})
}

func execMust(cat *engine.Catalog, sql string) {
	if _, err := execErr(cat, sql); err != nil {
		panic(err)
	}
}

func multisetEqual(a, b [][]val.Value) bool {
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
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// Property: the same query with and without secondary indexes returns the
// same rows (index scans and index joins agree with full scans).
func TestQuickIndexEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		build := func(withIndex bool) *engine.Catalog {
			cat := engine.NewCatalog()
			execMust(cat, "CREATE TABLE e (w1 INT, u INT, w2 INT)")
			if withIndex {
				execMust(cat, "CREATE INDEX e_w1u ON e (w1, u); CREATE INDEX e_w1 ON e (w1)")
			}
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				execMust(cat, fmt.Sprintf("INSERT INTO e VALUES (%d, %d, %d)",
					rr.Intn(5), rr.Intn(4), rr.Intn(5)))
			}
			return cat
		}
		sql := fmt.Sprintf(`SELECT e1.w2, e2.w2 FROM e e1, e e2
			WHERE e1.w1 = %d AND e1.u = %d AND e2.w1 = e1.w2 AND e2.u = %d`,
			r.Intn(5), r.Intn(4), r.Intn(4))
		r1, err := execErr(build(true), sql)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := execErr(build(false), sql)
		if err != nil {
			t.Fatal(err)
		}
		return multisetEqual(r1.Rows, r2.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
