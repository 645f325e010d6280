package store_test

import (
	"fmt"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/store"
)

// benchGenStore bulk-loads n generated statements: 20 users, Zipf
// participation, nesting depth 0/1/2 with probability 0.2/0.5/0.3 and a key
// pool of n/4, the shape of the repository benchmark's write dataset.
func benchGenStore(b *testing.B, n int) *store.Store {
	b.Helper()
	const users = 20
	st, err := store.Open([]store.Relation{genRelation()})
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
	return st
}

// BenchmarkExplicitStatements reads every explicit statement back in
// canonical order — the read-back behind Statements(), the checkpoint
// render, Rebuild and replica bootstrap.
func BenchmarkExplicitStatements(b *testing.B) {
	for _, n := range []int{3000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := benchGenStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stmts, err := st.ExplicitStatements()
				if err != nil || len(stmts) != n {
					b.Fatalf("%d statements, %v", len(stmts), err)
				}
			}
		})
	}
}
