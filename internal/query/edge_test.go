package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/engine"
	"beliefdb/internal/val"
)

// Edge cases of the SELECT tail: empty inputs, NULL ordering, LIMIT 0,
// string concatenation, grouped aggregates over NULL-bearing columns.

func edgeFixture(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE m (k INT PRIMARY KEY, grp TEXT, v INT, s TEXT);
		INSERT INTO m VALUES
			(1, 'a', 10, 'x'),
			(2, 'a', NULL, 'y'),
			(3, 'b', 5, NULL),
			(4, 'b', 7, 'z'),
			(5, NULL, 1, 'w');
	`)
	return cat
}

func TestGroupByWithNullKeysAndValues(t *testing.T) {
	cat := edgeFixture(t)
	res := exec(t, cat, `
		SELECT grp, COUNT(*) AS c, COUNT(v) AS cv, SUM(v) AS s
		FROM m GROUP BY grp ORDER BY c DESC, grp`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	// Group 'a': 2 rows, one NULL v (ignored by COUNT(v)/SUM).
	for _, r := range res.Rows {
		switch r[0].String() {
		case "a":
			if r[1].AsInt() != 2 || r[2].AsInt() != 1 || r[3].AsInt() != 10 {
				t.Errorf("group a = %v", r)
			}
		case "b":
			if r[1].AsInt() != 2 || r[2].AsInt() != 2 || r[3].AsInt() != 12 {
				t.Errorf("group b = %v", r)
			}
		case "NULL":
			if r[1].AsInt() != 1 || r[3].AsInt() != 1 {
				t.Errorf("null group = %v", r)
			}
		}
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	cat := edgeFixture(t)
	res := exec(t, cat, "SELECT k FROM m ORDER BY v")
	// NULL compares before everything in val.Compare, so k=2 sorts first.
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLimitZeroAndOversized(t *testing.T) {
	cat := edgeFixture(t)
	res := exec(t, cat, "SELECT k FROM m LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 rows = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT k FROM m LIMIT 99")
	if len(res.Rows) != 5 {
		t.Errorf("oversized LIMIT rows = %d", len(res.Rows))
	}
}

func TestStringConcat(t *testing.T) {
	cat := edgeFixture(t)
	res := exec(t, cat, "SELECT s + '!' FROM m WHERE k = 1")
	if res.Rows[0][0].AsString() != "x!" {
		t.Errorf("concat = %v", res.Rows)
	}
	// NULL propagates through +.
	res = exec(t, cat, "SELECT s + '!' FROM m WHERE k = 3")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("NULL concat = %v", res.Rows)
	}
}

func TestSelectFromEmptyTable(t *testing.T) {
	cat := engine.NewCatalog()
	exec(t, cat, "CREATE TABLE e (x INT, y INT); CREATE INDEX e_x ON e (x)")
	res := exec(t, cat, "SELECT x FROM e WHERE x = 1 ORDER BY y DESC LIMIT 3")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT COUNT(*), MIN(x) FROM e")
	if res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("aggregates over empty = %v", res.Rows)
	}
	// Join of two empty tables through the index-join path.
	exec(t, cat, "CREATE TABLE f (x INT)")
	res = exec(t, cat, "SELECT e.x FROM e, f WHERE e.x = f.x")
	if len(res.Rows) != 0 {
		t.Errorf("empty join rows = %v", res.Rows)
	}
}

func TestDistinctOnExpressions(t *testing.T) {
	cat := edgeFixture(t)
	res := exec(t, cat, "SELECT DISTINCT grp FROM m WHERE grp IS NOT NULL")
	if len(res.Rows) != 2 {
		t.Errorf("distinct rows = %v", res.Rows)
	}
	res = exec(t, cat, "SELECT DISTINCT v * 0 FROM m WHERE v IS NOT NULL")
	if len(res.Rows) != 1 {
		t.Errorf("distinct expr rows = %v", res.Rows)
	}
}

func TestThreeTableChainUsesIndexJoins(t *testing.T) {
	cat := engine.NewCatalog()
	exec(t, cat, `
		CREATE TABLE a (id INT PRIMARY KEY, b_id INT);
		CREATE TABLE b (id INT PRIMARY KEY, c_id INT);
		CREATE TABLE c (id INT PRIMARY KEY, name TEXT);
		INSERT INTO a VALUES (1, 10), (2, 20), (3, 30);
		INSERT INTO b VALUES (10, 100), (20, 200), (30, 999);
		INSERT INTO c VALUES (100, 'first'), (200, 'second');
	`)
	res := exec(t, cat, `
		SELECT a.id, c.name FROM a, b, c
		WHERE a.b_id = b.id AND b.c_id = c.id ORDER BY a.id`)
	want := []string{"1|first", "2|second"}
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

// TestResultRowsDoNotAlias: result rows are cut from shared buffers, so
// each is capacity-capped (appending to one never writes into the next),
// and two runs of one statement share no row.
func TestResultRowsDoNotAlias(t *testing.T) {
	cat := fixture(t)
	for _, sql := range []string{
		"SELECT o.item, o.amount FROM orders o",
		"SELECT DISTINCT o.uid FROM orders o",
		"SELECT o.uid, COUNT(*), SUM(o.amount) FROM orders o GROUP BY o.uid",
		"SELECT o.item FROM users u, orders o WHERE u.uid = o.uid ORDER BY o.amount DESC",
	} {
		first, second := exec(t, cat, sql), exec(t, cat, sql)
		want := rowKeys(second.Rows)
		if len(first.Rows) < 2 {
			t.Fatalf("%s: %d rows, the test wants at least 2", sql, len(first.Rows))
		}
		for i := range first.Rows[:len(first.Rows)-1] {
			next := val.RowKey(first.Rows[i+1])
			_ = append(first.Rows[i], val.Str("appended"))
			if got := val.RowKey(first.Rows[i+1]); got != next {
				t.Errorf("%s: appending to row %d changed row %d", sql, i, i+1)
			}
		}
		for _, r := range first.Rows {
			for j := range r {
				r[j] = val.Str("overwritten")
			}
		}
		if got := rowKeys(second.Rows); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: writing the first run's rows changed the second run's", sql)
		}
	}
}

// TestLimitStopsChain: without ORDER BY or aggregates a LIMIT stops the
// chain once k rows are kept. The answer stays the first k rows of the
// unlimited one (after DISTINCT), and EXPLAIN counts only the rows that
// ran; an ORDER BY still reads every row.
func TestLimitStopsChain(t *testing.T) {
	cat := fixture(t)
	for _, q := range []string{
		"SELECT o.item FROM orders o",
		"SELECT DISTINCT o.uid FROM orders o",
		"SELECT u.name, o.item FROM users u, orders o WHERE u.uid = o.uid",
		"SELECT DISTINCT u.name FROM users u, orders o WHERE u.uid = o.uid AND o.amount > 1",
	} {
		all := rowKeys(exec(t, cat, q).Rows)
		for k := 0; k <= len(all)+1; k++ {
			sql := fmt.Sprintf("%s LIMIT %d", q, k)
			if got := rowKeys(exec(t, cat, sql).Rows); !reflect.DeepEqual(got, all[:min(k, len(all))]) {
				t.Errorf("%s = %v, want the first %d of %v", sql, got, k, all)
			}
		}
	}
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"SELECT o.item FROM orders o LIMIT 2", []string{"full scan est=4 rows=2"}},
		// The uids are 1, 1, 2, 3: the second distinct one is the third row.
		{"SELECT DISTINCT o.uid FROM orders o LIMIT 2", []string{"full scan est=4 rows=3"}},
		{"SELECT u.name, o.item FROM users u, orders o WHERE u.uid = o.uid LIMIT 1",
			[]string{"full scan est=3 rows=1", "index join index=orders_uid rows=1"}},
		{"SELECT o.item FROM orders o ORDER BY o.item LIMIT 2", []string{"full scan est=4 rows=4"}},
	} {
		var got []string
		for _, r := range exec(t, cat, "EXPLAIN "+tc.sql).Rows {
			got = append(got, strings.TrimSpace(fmt.Sprintf("%s %s", r[1].AsString(), r[2].AsString()))+fmt.Sprintf(" rows=%d", r[3].AsInt()))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("EXPLAIN %s\n got  %q\n want %q", tc.sql, got, tc.want)
		}
	}
}

// TestGlobalAggregateOverNoRows: an aggregate without GROUP BY over no rows
// is one row, whose plain columns read NULL.
func TestGlobalAggregateOverNoRows(t *testing.T) {
	cat := fixture(t)
	res := exec(t, cat, "SELECT COUNT(*), item FROM orders WHERE amount > 100")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("rows = %v, want one row [0 NULL]", res.Rows)
	}
}
