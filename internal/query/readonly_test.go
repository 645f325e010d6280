package query

import (
	"testing"

	"beliefdb/internal/sqlparser"
)

func TestReadOnlyClassification(t *testing.T) {
	cases := []struct {
		sql      string
		readOnly bool
	}{
		{"SELECT 1 FROM t", true},
		{"SELECT x FROM t WHERE x > 3 ORDER BY x LIMIT 2", true},
		{"SELECT DISTINCT a.x FROM t a, u b WHERE a.x = b.y GROUP BY a.x", true},
		{"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.y = t.x)", true},
		{"EXPLAIN SELECT x FROM t WHERE x > 3 AND EXISTS (SELECT 1 FROM u, v WHERE u.y = t.x AND v.z = u.y)", true},
		{"CREATE TABLE t (x INT)", false},
		{"CREATE INDEX ix ON t (x)", false},
		{"DROP TABLE t", false},
		{"INSERT INTO t VALUES (1)", false},
		{"UPDATE t SET x = 1", false},
		{"DELETE FROM t", false},
		{"BEGIN", false},
		{"COMMIT", false},
		{"ROLLBACK", false},
	}
	for _, c := range cases {
		stmt, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := ReadOnly(stmt); got != c.readOnly {
			t.Errorf("ReadOnly(%s) = %v, want %v", c.sql, got, c.readOnly)
		}
	}
}

func TestAllReadOnly(t *testing.T) {
	ro, err := sqlparser.ParseAll("SELECT 1 FROM t; SELECT 2 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !AllReadOnly(ro) {
		t.Error("pure-SELECT batch classified as writing")
	}
	mixed, err := sqlparser.ParseAll("SELECT 1 FROM t; INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if AllReadOnly(mixed) {
		t.Error("batch with INSERT classified as read-only")
	}
	if !AllReadOnly(nil) {
		t.Error("empty batch should be vacuously read-only")
	}
}
