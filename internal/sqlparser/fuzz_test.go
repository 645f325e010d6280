package sqlparser

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary input to the full-batch parser. The contract
// under fuzzing: the parser never panics, and every expression of a
// successfully parsed statement stringifies without panicking and re-parses
// (String() output stays inside the grammar).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT x FROM t WHERE x = 1",
		"SELECT DISTINCT a.x, y AS z FROM t1 AS a, t2 b WHERE a.x = b.y AND y > 3 ORDER BY a.x DESC LIMIT 10",
		"SELECT *, t.* FROM t",
		"SELECT 'const', 42 FROM t",
		"SELECT a.b, 'it''s', 3.5 FROM t -- comment\n WHERE x <> 2",
		"SELECT x FROM t WHERE NOT (a = 1 OR b = 2)",
		"SELECT x FROM t WHERE a + b * c = 7",
		"SELECT x FROM t WHERE a = -5",
		"SELECT COUNT(*), MAX(d) FROM t GROUP BY k",
		"SELECT x FROM t WHERE c IS NOT NULL AND d IS NULL",
		"CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), w FLOAT, ok BOOL)",
		"CREATE INDEX i ON t (a, b)",
		"CREATE ORDERED INDEX oi ON t (ts, k)",
		"SELECT x FROM t WHERE a >= 10 AND a < 20 AND b = 'x'",
		"SELECT x FROM t WHERE ts > 5 ORDER BY ts DESC LIMIT 7",
		"EXPLAIN SELECT x FROM t WHERE a = 1 ORDER BY b LIMIT 3",
		"EXPLAIN CREATE INDEX i ON t (a)",
		"DROP TABLE t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"UPDATE t SET a = 1, b = 'x' WHERE c IS NOT NULL",
		"DELETE FROM t WHERE a = 1",
		"BEGIN; COMMIT; ROLLBACK;",
		"CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT x FROM t",
		"SELECT _v.wid FROM _e _v",
		"SELECT x FROM t extra garbage (",
		"SELECT x FROM t WHERE",
		"",
		";;;",
		"SELECT 0x10, 1e9, .5, 'unterminated",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u w, v WHERE w.y = t.x AND ((v.z = w.y) OR (v.z IS NULL AND w.y IS NULL)))",
		"SELECT x FROM t WHERE x = 1 AND EXISTS (((SELECT 1 FROM u)))",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM v WHERE v.z = u.y AND v.z = t.x))",
		"SELECT x FROM t WHERE NOT EXISTS (SELECT * FROM u AS w WHERE w.y = t.x ORDER BY w.y LIMIT 1) OR EXISTS (SELECT 1 FROM v)",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.y = t.x",
		"SELECT EXISTS (SELECT 1 FROM u) FROM t WHERE exists = 1",
		"SELECT x FROM t WHERE x < 1e-05 OR x > 2.5E+23 OR x = 3e2",
		"SELECT 1e, 1e+, 1E-x, 3e2x FROM t WHERE y = .5e1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseAll(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			// A parsed SELECT's expressions must stringify and re-parse:
			// String() is used to rebuild ORDER BY keys and by the BeliefSQL
			// translator, so it must stay inside the grammar.
			sel, ok := stmt.(Select)
			if !ok || sel.Where == nil {
				continue
			}
			s := sel.Where.String()
			if strings.TrimSpace(s) == "" {
				t.Fatalf("empty String() for parsed WHERE of %q", src)
			}
			if _, err := Parse("SELECT x FROM t WHERE " + s); err != nil {
				t.Fatalf("String() output does not re-parse: %q -> %q: %v", src, s, err)
			}
		}
	})
}
