package router

import (
	"math"
	"sort"
	"testing"

	"beliefdb/client"
	"beliefdb/internal/engine"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// fuzzAggQueries are the scattered aggregate shapes the fuzz target checks:
// every aggregate over an int, a float and a string column, grouped and
// global, with a WHERE that can leave a shard's group (or the whole group)
// empty, arithmetic over aggregates, and a top-k over the merged groups.
var fuzzAggQueries = []string{
	"select T.g, count(*), count(T.i), sum(T.i), min(T.i), max(T.i), avg(T.i) from Tab T group by T.g",
	"select T.g, sum(T.f), avg(T.f), min(T.f), max(T.f), count(T.f) from Tab T group by T.g",
	"select T.g, min(T.s), max(T.s), count(T.s) from Tab T group by T.g",
	"select count(*), sum(T.i), sum(T.f), avg(T.i), avg(T.f), min(T.s), max(T.f) from Tab T",
	"select count(*), sum(T.i), avg(T.f), min(T.i), max(T.s) from Tab T where T.i > 100",
	"select T.g, sum(T.i) + count(*), max(T.f) - min(T.f) from Tab T where T.i >= 0 group by T.g",
	"select T.g, count(*) as n, sum(T.f) from Tab T group by T.g order by T.g limit 2",
}

// fuzzRows decodes five bytes per row: group key, int, float and string
// value (each NULL for some byte values) and the part the row lands in.
// Floats are tenths, so partial sums really do round differently.
func fuzzRows(data []byte, parts int) [][][]val.Value {
	out := make([][][]val.Value, parts)
	for ; len(data) >= 5; data = data[5:] {
		row := []val.Value{val.Null(), val.Null(), val.Null(), val.Null()}
		if data[0]%5 != 4 {
			row[0] = val.Int(int64(data[0] % 5))
		}
		if data[1]%7 != 0 {
			row[1] = val.Int(int64(int8(data[1])))
		}
		if data[2]%6 != 0 {
			row[2] = val.Float(float64(int8(data[2])) / 10)
		}
		if data[3]%4 != 0 {
			row[3] = val.Str(string([]byte{'a' + data[3]%26, 'a' + data[3]/26}))
		}
		p := int(data[4]) % parts
		out[p] = append(out[p], row)
	}
	return out
}

// fuzzCatalog holds Tab(g, i, f, s) with the given rows.
func fuzzCatalog(t *testing.T, rows [][]val.Value) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	schema, err := engine.NewSchema([]engine.Column{
		{Name: "g", Type: val.KindInt}, {Name: "i", Type: val.KindInt},
		{Name: "f", Type: val.KindFloat}, {Name: "s", Type: val.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := cat.CreateTable("Tab", schema, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func fuzzRun(t *testing.T, cat *engine.Catalog, sql string) *query.Result {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := query.Run(cat, stmt)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return res
}

// sameValue is exact equality, except that two floats (a float SUM or AVG,
// whose additions the split reorders) may differ by 1e-9 relative.
func sameValue(a, b val.Value) bool {
	if a.Kind() == val.KindFloat && b.Kind() == val.KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return a.Kind() == b.Kind() && val.Equal(a, b)
}

// byGroup sorts rows by their rendered first column: the executor emits
// groups in first-appearance order and so does the merge, but over the
// shards' concatenation, so only the set of groups is comparable.
func byGroup(rows [][]val.Value) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][0].String() < rows[j][0].String() })
}

// FuzzAggregateMerge splits random rows k ways, runs each scattered
// aggregate's partial query through the executor on every part, folds the
// partials with aggPlan.merge, and requires the executor's answer over all
// the rows at once.
func FuzzAggregateMerge(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("\x00\x01\x01\x01\x00\x00\x02\x02\x02\x01\x00\x03\x03\x03\x02"), uint8(2)) // 0.1+0.2+0.3 over three parts
	f.Add([]byte("\x01\x07\x06\x04\x00\x01\x0e\x0c\x08\x01"), uint8(1))                     // a group of NULLs only
	f.Add([]byte("\x04\x65\x7f\x05\x00\x04\x66\x80\x06\x01\x02\x9c\x81\x07\x00"), uint8(3)) // NULL group key, negatives
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		if len(data) > 5*200 {
			data = data[:5*200]
		}
		parts := fuzzRows(data, int(k%4)+1)
		var all [][]val.Value
		shards := make([]*engine.Catalog, len(parts))
		for i, rows := range parts {
			all = append(all, rows...)
			shards[i] = fuzzCatalog(t, rows)
		}
		whole := fuzzCatalog(t, all)

		for _, q := range fuzzAggQueries {
			sel := parseSelect(t, q)
			p, err := planAggregate(sel)
			if err != nil {
				t.Fatalf("planAggregate(%q): %v", q, err)
			}
			partials := make([]*client.Result, len(shards))
			for i, cat := range shards {
				partials[i] = &client.Result{Rows: fuzzRun(t, cat, p.scatterText).Rows}
			}
			got, err := p.merge(partials)
			if err != nil {
				t.Fatalf("merge(%q): %v", q, err)
			}
			want := fuzzRun(t, whole, q).Rows
			if len(sel.OrderBy) == 0 && len(sel.GroupBy) > 0 {
				byGroup(got.Rows)
				byGroup(want)
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("%q over %d parts: %d rows, single node %d\nmerged %v\nsingle %v", q, len(shards), len(got.Rows), len(want), got.Rows, want)
			}
			for r := range want {
				for c := range want[r] {
					if !sameValue(got.Rows[r][c], want[r][c]) {
						t.Fatalf("%q over %d parts, row %d column %d: merged %v, single node %v\nmerged %v\nsingle %v",
							q, len(shards), r, c, got.Rows[r][c], want[r][c], got.Rows, want)
					}
				}
			}
		}
	})
}
