package bsql_test

import (
	"fmt"
	"strings"
	"testing"

	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// BenchmarkDMLTarget resolves the targets of single-statement DELETEs —
// bsql.CompileBatch without the commit — on 10 000 generated statements
// (20 users, Zipf, depth 0/1/2 with probability 0.2/0.5/0.3), each
// identifying one explicit statement of a belief world: by its key and
// species, and by a predicate that leaves the key free.
func BenchmarkDMLTarget(b *testing.B) {
	const n, users = 10000, 20
	cols := make([]store.Column, 0, len(gen.RelColumns()))
	for _, c := range gen.RelColumns() {
		cols = append(cols, store.Column{Name: c, Type: val.KindString})
	}
	st, err := store.Open([]store.Relation{{Name: gen.DefaultRel, Columns: cols}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= users; i++ {
		if _, err := st.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	g, err := gen.New(gen.Config{
		Users: users, DepthDist: []float64{0.2, 0.5, 0.3}, Participation: gen.Zipf,
		KeyPool: n / 4, Variants: 4, NegProb: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.BulkLoad(func(insert func(core.Statement) (bool, error)) error {
		_, _, err := g.Load(n, insert)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	all, err := st.ExplicitStatements()
	if err != nil {
		b.Fatal(err)
	}
	var targets []core.Statement
	for i := 0; i < len(all) && len(targets) < 64; i += len(all) / 64 {
		if len(all[i].Path) > 0 {
			targets = append(targets, all[i])
		}
	}
	tr := bsql.NewTranslator(st)
	for _, c := range []struct {
		name  string
		where func(t core.Tuple) string
	}{
		{"key", func(t core.Tuple) string {
			return fmt.Sprintf("sid = %s and species = %s", t.Vals[0].SQL(), t.Vals[2].SQL())
		}},
		{"nonkey", func(t core.Tuple) string {
			return fmt.Sprintf("observer = %s and species = %s and location = %s", t.Vals[1].SQL(), t.Vals[2].SQL(), t.Vals[4].SQL())
		}},
	} {
		scripts := make([]string, len(targets))
		for i, s := range targets {
			var sb strings.Builder
			sb.WriteString("delete from ")
			for _, u := range s.Path {
				fmt.Fprintf(&sb, "BELIEF 'u%d' ", u)
			}
			if s.Sign == core.Neg {
				sb.WriteString("not ")
			}
			sb.WriteString(gen.DefaultRel + " where " + c.where(s.Tuple))
			scripts[i] = sb.String()
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ops, err := tr.CompileBatch(scripts[i%len(scripts)])
				if err != nil || len(ops) == 0 {
					b.Fatalf("%s: %d targets, %v", scripts[i%len(scripts)], len(ops), err)
				}
			}
		})
	}
}
