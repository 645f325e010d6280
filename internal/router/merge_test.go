package router

import (
	"strings"
	"testing"

	"beliefdb/client"
	"beliefdb/internal/bsql"
	"beliefdb/internal/val"
)

func parseSelect(t *testing.T, src string) bsql.Select {
	t.Helper()
	st, err := bsql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(bsql.Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want Select", src, st)
	}
	return sel
}

func res(rows ...[]val.Value) *client.Result { return &client.Result{Rows: rows} }

func TestPlanAggregateScatterText(t *testing.T) {
	sel := parseSelect(t, "select S.species, count(S.sid) as n from Sightings S group by S.species")
	p, err := planAggregate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if p.groupW != 1 || p.scatterW != 2 || len(p.specs) != 1 {
		t.Fatalf("plan shape: groupW=%d scatterW=%d specs=%d", p.groupW, p.scatterW, len(p.specs))
	}
	for _, want := range []string{"AS __g0", "AS __a0", "GROUP BY S.species"} {
		if !strings.Contains(p.scatterText, want) {
			t.Errorf("scatter text %q lacks %q", p.scatterText, want)
		}
	}
	if strings.Contains(p.scatterText, "DISTINCT") {
		t.Errorf("aggregated scatter text %q must not be DISTINCT", p.scatterText)
	}
	// A re-parse must succeed: the scatter text travels to real shards.
	if _, err := bsql.Parse(p.scatterText); err != nil {
		t.Fatalf("scatter text does not re-parse: %v", err)
	}
}

func TestMergeCountsAcrossShards(t *testing.T) {
	sel := parseSelect(t, "select S.species, count(S.sid) as n from Sightings S group by S.species")
	p, err := planAggregate(sel)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 saw 2 owls and 1 crow, shard 1 saw 3 owls.
	out, err := p.merge([]*client.Result{
		res([]val.Value{val.Str("owl"), val.Int(2)}, []val.Value{val.Str("crow"), val.Int(1)}),
		res([]val.Value{val.Str("owl"), val.Int(3)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Columns) != 2 || out.Columns[0] != "species" || out.Columns[1] != "n" {
		t.Fatalf("columns = %v", out.Columns)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %v", out.Rows)
	}
	if out.Rows[0][0].AsString() != "owl" || out.Rows[0][1].AsInt() != 5 {
		t.Errorf("owl row = %v", out.Rows[0])
	}
	if out.Rows[1][0].AsString() != "crow" || out.Rows[1][1].AsInt() != 1 {
		t.Errorf("crow row = %v", out.Rows[1])
	}
}

func TestMergeAvgRecombinesSumAndCount(t *testing.T) {
	sel := parseSelect(t, "select avg(M.grams) from Measurements M")
	p, err := planAggregate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if p.scatterW != 2 {
		t.Fatalf("AVG scatter width = %d, want 2 (sum, count)", p.scatterW)
	}
	// Shard partials: (sum 10, count 2) and (sum 2, count 2). A naive
	// average-of-averages would give (5+1)/2 = 3; the true mean is 3 too —
	// pick partials where they differ: (10,1) and (2,3) → true mean 3,
	// average of averages (10+2/3)/2 ≈ 5.33.
	out, err := p.merge([]*client.Result{
		res([]val.Value{val.Int(10), val.Int(1)}),
		res([]val.Value{val.Int(2), val.Int(3)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %v", out.Rows)
	}
	if got := out.Rows[0][0].AsFloat(); got != 3.0 {
		t.Errorf("AVG = %v, want 3.0", got)
	}
}

func TestMergeSumStaysIntegralSkipsNulls(t *testing.T) {
	sel := parseSelect(t, "select sum(M.grams) as total from Measurements M")
	p, err := planAggregate(sel)
	if err != nil {
		t.Fatal(err)
	}
	// One shard had no non-NULL inputs and reports a NULL partial.
	out, err := p.merge([]*client.Result{
		res([]val.Value{val.Int(4)}),
		res([]val.Value{val.Null()}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Rows[0][0]; v.Kind() != val.KindInt || v.AsInt() != 4 {
		t.Errorf("SUM = %v, want integral 4", v)
	}

	// All shards NULL → NULL, like the engine.
	out, err = p.merge([]*client.Result{res([]val.Value{val.Null()}), res([]val.Value{val.Null()})})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rows[0][0].IsNull() {
		t.Errorf("SUM over all-NULL partials = %v, want NULL", out.Rows[0][0])
	}
}

func TestMergeMinMax(t *testing.T) {
	sel := parseSelect(t, "select min(M.grams), max(M.grams) from Measurements M")
	p, err := planAggregate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if p.scatterW != 2 || len(p.specs) != 2 {
		t.Fatalf("plan shape: scatterW=%d specs=%d", p.scatterW, len(p.specs))
	}
	out, err := p.merge([]*client.Result{
		res([]val.Value{val.Int(3), val.Int(9)}),
		res([]val.Value{val.Int(1), val.Int(7)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].AsInt() != 1 || out.Rows[0][1].AsInt() != 9 {
		t.Errorf("min/max = %v, want 1/9", out.Rows[0])
	}
}

func TestMergeArithmeticOverAggregates(t *testing.T) {
	// Items combining aggregates and group expressions re-evaluate over the
	// folded values.
	sel := parseSelect(t, "select S.species, count(S.sid) + 1 as n1 from Sightings S group by S.species order by S.species")
	p, err := planAggregate(sel)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.merge([]*client.Result{
		res([]val.Value{val.Str("owl"), val.Int(2)}),
		res([]val.Value{val.Str("crow"), val.Int(1)}, []val.Value{val.Str("owl"), val.Int(1)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// ORDER BY S.species: crow, owl; counts 1+1 and 3+1.
	if len(out.Rows) != 2 ||
		out.Rows[0][0].AsString() != "crow" || out.Rows[0][1].AsInt() != 2 ||
		out.Rows[1][0].AsString() != "owl" || out.Rows[1][1].AsInt() != 4 {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestPlanAggregateRefusals(t *testing.T) {
	for _, src := range []string{
		// Bare column that is neither grouped nor aggregated.
		"select S.sid, count(S.sid) from Sightings S group by S.species",
		// Star item in an aggregate.
		"select *, count(S.sid) from Sightings S group by S.species",
	} {
		sel := parseSelect(t, src)
		if _, err := planAggregate(sel); err == nil {
			t.Errorf("planAggregate(%q) succeeded, want refusal", src)
		}
	}
}

func TestRoutingClassification(t *testing.T) {
	usersOnly := parseSelect(t, "select U.name from Users U")
	if got := partitionedFrom(usersOnly); len(got) != 0 {
		t.Errorf("Users-only query partitioned refs = %v", got)
	}
	one := parseSelect(t, "select S.species from Sightings S, Users U where S.uname = U.name")
	if got := partitionedFrom(one); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-relation join partitioned refs = %v", got)
	}
	two := parseSelect(t, "select S.species from Sightings S, BELIEF 'Bob' Sightings T")
	if got := partitionedFrom(two); len(got) != 2 {
		t.Errorf("two-relation query partitioned refs = %v", got)
	}
	// A belief path over Users would be a partitioned ref (it cannot be the
	// replicated catalog table).
	bu := bsql.BeliefRef{Table: "Users", Path: []bsql.PathElem{{Literal: "Bob"}}}
	if globalRef(bu) {
		t.Error("BELIEF 'Bob' Users classified as global")
	}
}
