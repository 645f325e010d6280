package bsql_test

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"beliefdb/internal/bench"
	"beliefdb/internal/bsql"
	"beliefdb/internal/gen"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

const goldenFile = "testdata/translate.golden"

// goldenSameTuple equates every attribute of T2 with T1's, as the
// disagreement queries of Sect. 6.2 do.
const goldenSameTuple = ` T2.sid = T1.sid and T2.observer = T1.observer and T2.species = T1.species
	and T2.date = T1.date and T2.location = T1.location`

// goldenQueries are the translations pinned in translate.golden: the seven
// analytic-read texts of Sect. 6.2, then every query whose plan
// internal/query's belief_plan_test.go pins.
func goldenQueries() [][2]string {
	var qs [][2]string
	for _, q := range bench.Table2Queries() {
		qs = append(qs, [2]string{strings.ReplaceAll(q.Name, ",", "_"), q.Query})
	}
	for i, q := range []string{
		"select T.sid, T.species from S T",
		"select T.sid, T.species from BELIEF 'u1' S T",
		"select T.sid, T.species from BELIEF 'u1' BELIEF 'u2' S T",
		"select T.sid, T.species from BELIEF 'u1' BELIEF 'u2' BELIEF 'u1' S T",
		"select T.sid, T.species from BELIEF 'u1' BELIEF 'u2' BELIEF 'u1' BELIEF 'u2' S T",
		"select T.species from S T where T.sid = 'k7'",
		"select T.species from BELIEF 'u1' S T where T.sid = 'k7'",
		"select T.species from BELIEF 'u2' BELIEF 'u1' S T where T.sid = 'k7'",
		"select T.sid, T.species from BELIEF 'u1' S T where T.location = 'loc1'",
		"select * from BELIEF 'u1' S",
		"select T.observer, count(T.sid) from BELIEF 'u1' S T group by T.observer",
		"select T.sid, T.species from BELIEF 'u1' S T order by T.sid limit 10",
		`select T1.sid, T1.species from BELIEF 'u2' BELIEF 'u1' S T1, BELIEF 'u2' not S T2 where` + goldenSameTuple,
		`select U.uid from Users U, BELIEF 'u1' S T1, BELIEF U.uid not S T2
				where T1.location = 'loc1' and` + goldenSameTuple,
		`select U.uid, T1.sid from Users U, BELIEF 'u1' S T1, BELIEF 'u2' not S T2, BELIEF 'u3' BELIEF U.uid not S T3
				where` + goldenSameTuple + strings.ReplaceAll(" and"+goldenSameTuple, "T2", "T3"),
	} {
		qs = append(qs, [2]string{fmt.Sprintf("plan_%d", i), q})
	}
	return qs
}

// goldenStore is the schema of internal/query's belief plan tests: gen's
// relation over string columns and users u1..u4. Translation reads only
// the catalogs, so the store holds no statements.
func goldenStore(t *testing.T) *bsql.Translator {
	t.Helper()
	cols := make([]store.Column, 0, 5)
	for _, c := range gen.RelColumns() {
		cols = append(cols, store.Column{Name: c, Type: val.KindString})
	}
	st, err := store.Open([]store.Relation{{Name: gen.DefaultRel, Columns: cols}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 4; u++ {
		if _, err := st.AddUser(fmt.Sprintf("u%d", u)); err != nil {
			t.Fatal(err)
		}
	}
	return bsql.NewTranslator(st)
}

// oneLine collapses a query's whitespace runs to single spaces.
func oneLine(q string) string { return strings.Join(strings.Fields(q), " ") }

// TestTranslateGolden: the AST a SELECT is translated to is the one the
// parser builds from translate.golden, recorded from the text translator
// that preceded the AST builder — the same FROM order, the same conjunct
// order and left-deep AND chains, so the planner sees what it always saw.
func TestTranslateGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	records := strings.Split(strings.TrimSpace(string(data)), "\n\n")
	queries := goldenQueries()
	if len(records) != len(queries) {
		t.Fatalf("%s holds %d records, want %d", goldenFile, len(records), len(queries))
	}
	tr := goldenStore(t)
	for i, q := range queries {
		rec := strings.Split(records[i], "\n")
		if len(rec) != 3 || rec[0] != q[0] || rec[1] != oneLine(q[1]) {
			t.Fatalf("record %d of %s is %q, want %s: %s", i, goldenFile, rec, q[0], oneLine(q[1]))
		}
		want, err := sqlparser.Parse(rec[2])
		if err != nil {
			t.Fatalf("%s: golden SQL does not parse: %v", q[0], err)
		}
		stmt, err := bsql.Parse(q[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.SelectAST(stmt.(bsql.Select))
		if err != nil {
			t.Fatalf("%s: %v", q[0], err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: translated AST differs from the golden SQL's\n got  %s\n want %s", q[0], got, rec[2])
		}
	}
}
