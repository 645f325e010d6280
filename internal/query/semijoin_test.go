package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"beliefdb/internal/engine"
)

// existsAgainstJoin builds a small random database and a random correlated
// subquery from (seed, mask) and checks that
//
//	SELECT DISTINCT <outer cols> FROM <outer> WHERE <outer conds> AND EXISTS (SELECT 1 FROM <inner> WHERE <conds>)
//
// returns the rows of the join it replaces,
//
//	SELECT DISTINCT <outer cols> FROM <outer>, <inner> WHERE <outer conds> AND <conds>
//
// whatever indexes the inner tables happen to carry. mask picks the
// conjuncts; it returns a description of the first disagreement.
func existsAgainstJoin(seed int64, mask uint16) error {
	r := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()
	withC, withD := r.Intn(2) == 0, r.Intn(2) == 0
	ddl := "CREATE TABLE a (x INT, y INT); CREATE TABLE b (u INT, v INT);"
	if withC {
		ddl += " CREATE TABLE c (p INT, q INT);"
	}
	dKeyed := r.Intn(2) == 0
	if withD && dKeyed {
		ddl += " CREATE TABLE d (s INT PRIMARY KEY, t INT);"
	} else if withD {
		ddl += " CREATE TABLE d (s INT, t INT);"
	}
	for _, ix := range []string{"CREATE INDEX b_u ON b (u);", "CREATE INDEX b_uv ON b (u, v);", "CREATE ORDERED INDEX b_v ON b (v);", "CREATE INDEX d_t ON d (t);"} {
		if r.Intn(2) == 0 && (withD || !strings.Contains(ix, " d ")) {
			ddl += " " + ix
		}
	}
	execMust(cat, ddl)
	fill := func(table string, unique bool) {
		for i, n := 0, r.Intn(10); i < n; i++ {
			first := r.Intn(4)
			if unique {
				first = i
			}
			execMust(cat, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", table, first, r.Intn(4)))
		}
	}
	fill("a", false)
	fill("b", false)
	if withC {
		fill("c", false)
	}
	if withD {
		fill("d", dKeyed)
	}

	k := r.Intn(4)
	pool := []struct {
		cond         string
		needC, needD bool
	}{
		{"b.u = a.x", false, false},
		{"a.y = b.v", false, false},
		{fmt.Sprintf("b.u = %d", k), false, false},
		{fmt.Sprintf("b.v > %d", k), false, false},
		{fmt.Sprintf("(b.u = %d OR b.v <> a.y)", k), false, false},
		{"b.v = c.q", true, false},
		{"d.s = b.v", false, true},
		{"d.t = a.y", false, true},
		{"d.s <> b.u", false, true},
		{fmt.Sprintf("(d.t = %d OR NOT (d.s = a.x))", k), false, true},
		{"d.t = c.p", true, true},
		{"a.x <> c.p", true, false}, // mentions only the enclosing query
	}
	var conds []string
	for i, p := range pool {
		if mask&(1<<i) != 0 && (!p.needC || withC) && (!p.needD || withD) {
			conds = append(conds, p.cond)
		}
	}
	outer, inner, cols, outerCond := "a", "b", "a.x, a.y", fmt.Sprintf("a.x >= %d", r.Intn(2))
	if withC {
		outer, cols = "a, c", "a.x, a.y, c.p, c.q"
	}
	if withD {
		inner = "b, d"
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	semi := fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE %s AND EXISTS (SELECT 1 FROM %s%s)", cols, outer, outerCond, inner, where)
	join := fmt.Sprintf("SELECT DISTINCT %s FROM %s, %s WHERE %s", cols, outer, inner, strings.Join(append([]string{outerCond}, conds...), " AND "))
	got, err := execErr(cat, semi)
	if err != nil {
		return fmt.Errorf("%s: %v", semi, err)
	}
	want, err := execErr(cat, join)
	if err != nil {
		return fmt.Errorf("%s: %v", join, err)
	}
	if !multisetEqual(got.Rows, want.Rows) {
		return fmt.Errorf("%s [%s]\n semi join = %v\n join      = %v", semi, ddl, rowsAsStrings(got), rowsAsStrings(want))
	}
	return nil
}

func TestQuickExistsAgainstJoin(t *testing.T) {
	f := func(seed int64, mask uint16) bool {
		if err := existsAgainstJoin(seed, mask); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func FuzzExistsAgainstJoin(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(0x0fff))
	f.Add(int64(3), uint16(0x00c3))
	f.Add(int64(18), uint16(0x0a55))
	f.Fuzz(func(t *testing.T, seed int64, mask uint16) {
		if err := existsAgainstJoin(seed, mask); err != nil {
			t.Fatal(err)
		}
	})
}

func TestExistsSemantics(t *testing.T) {
	cat := fixture(t)
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		// Correlated through a pk probe on the parameter.
		{"SELECT o.item FROM orders o WHERE EXISTS (SELECT 1 FROM users u WHERE u.uid = o.uid AND u.name = 'alice')",
			[]string{"apple", "pear"}},
		// Uncorrelated: decided once for every row.
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.amount > 7)",
			[]string{"alice", "bob", "carol"}},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.amount > 70)", nil},
		// Inner names shadow outer ones; unqualified names fall through.
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders u WHERE u.item = 'fig')",
			[]string{"alice", "bob", "carol"}},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT * FROM orders o WHERE o.uid = u.uid AND name = 'bob')",
			[]string{"bob"}},
		// Two conjuncts, a self-joining subquery, ORDER BY/LIMIT outside.
		{`SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o1, orders o2 WHERE o1.uid = u.uid AND o2.uid = u.uid AND o1.oid <> o2.oid)
			AND EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.uid) ORDER BY u.name LIMIT 5`, []string{"alice"}},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.uid) ORDER BY u.uid DESC LIMIT 2",
			[]string{"bob", "carol"}},
		{"SELECT COUNT(*) FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.uid AND o.item = 'apple')",
			[]string{"2"}},
	} {
		if got := rowsAsStrings(exec(t, cat, tc.sql)); strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s\n got %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// TestExistsRefused: EXISTS runs only as a top-level conjunct of a SELECT's
// WHERE; every other position, and every subquery shape the semi-join does
// not decide, is an error rather than a wrong answer.
func TestExistsRefused(t *testing.T) {
	cat := fixture(t)
	sub := "EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.uid)"
	for _, tc := range []struct{ sql, want string }{
		{"SELECT u.name FROM users u WHERE NOT " + sub, "top-level AND-ed condition"},
		{"SELECT u.name FROM users u WHERE u.uid = 1 OR " + sub, "top-level AND-ed condition"},
		{"SELECT u.name, " + sub + " FROM users u", "top-level AND-ed condition"},
		{"SELECT u.name FROM users u ORDER BY " + sub, "top-level AND-ed condition"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.uid AND EXISTS (SELECT 1 FROM users w WHERE w.uid = o.uid))", "top-level AND-ed condition"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT COUNT(*) FROM orders o)", "aggregate"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o GROUP BY o.uid)", "supports only"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o LIMIT 0)", "supports only"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM nowhere n)", "no table"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.nope = u.uid)", "unknown column"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.uid = w.uid)", "unknown column"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o, users o)", "duplicate table binding"},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o1, orders o2 WHERE uid = 1)", "ambiguous"},
	} {
		_, err := execErr(cat, tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s\n error = %v, want one containing %q", tc.sql, err, tc.want)
		}
	}
}

// TestExplainSemiJoin: one step per EXISTS in the four-column format, the
// uncorrelated prefix marked, rows = outer rows kept. An EXISTS that
// mentions no outer binding runs at the first step alone, not once more
// after every join. A subquery step joins as a positive one does: a hash
// or cross join reads its build side once per statement.
func TestExplainSemiJoin(t *testing.T) {
	// A constant-false subquery never holds.
	never := `SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.uid AND 1 = 0)`
	if got := rowsAsStrings(exec(t, fixture(t), never)); len(got) > 0 {
		t.Errorf("%s\n got %v, want no rows", never, got)
	}
	for _, tc := range []struct {
		sql, ddl string
		want     []string
	}{
		{`SELECT o.item FROM orders o WHERE EXISTS
			(SELECT 1 FROM orders x, users w WHERE w.uid = 1 AND x.uid = w.uid AND x.item = o.item)`, "",
			[]string{"full scan est=4", "semi join w pk once -> x index=orders_uid fetched=7"}},
		{`SELECT u.name, o.item FROM users u, orders o
			WHERE o.uid = u.uid AND EXISTS (SELECT 1 FROM orders x WHERE x.amount > 7)`, "",
			[]string{"full scan est=3", "semi join x scan once fetched=2", "index join index=orders_uid"}},
		// Correlated through an unindexed column: a hash join whose build
		// side reads orders once, not a scan per outer row.
		{`SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o WHERE o.item = u.name)`, "",
			[]string{"full scan est=3", "semi join o hash join fetched=4"}},
		// A table with no edge joins last, as a cross join over the rows
		// its filter passes, collected once.
		{`SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders o, users w WHERE o.uid = u.uid AND w.name <> 'zed')`, "",
			[]string{"full scan est=3", "semi join o index=orders_uid -> w cross join fetched=9"}},
		// A first step with no edge to the enclosing query takes its own
		// access path, a range walk among them.
		{`SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM orders x WHERE x.amount > 7)`,
			"CREATE ORDERED INDEX orders_amount ON orders (amount)",
			[]string{"full scan est=3", "semi join x range walk index=orders_amount once fetched=1"}},
		{never, "", []string{"full scan est=3", "semi join constant-false predicate"}},
	} {
		cat := fixture(t)
		if tc.ddl != "" {
			exec(t, cat, tc.ddl)
		}
		steps := explainSteps(t, cat, tc.sql)
		if strings.Join(steps, "; ") != strings.Join(tc.want, "; ") {
			t.Errorf("%s\n steps = %q, want %q", tc.sql, steps, tc.want)
		}
	}
}
