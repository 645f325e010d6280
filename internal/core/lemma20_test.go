package core_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
)

// TestQuickLemma20OrderIndependence checks Lemma 20 (appendix C): a
// consistent belief database has exactly one consistent extension, so the
// theory D̄ — and therefore every entailed world — must not depend on the
// order in which the explicit statements were asserted.
func TestQuickLemma20OrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(4)
		base, stmts, err := gen.Statements(gen.Config{
			Users:         m,
			DepthDist:     []float64{0.3, 0.4, 0.2, 0.1},
			Participation: gen.Uniform,
			KeyPool:       5,
			Variants:      3,
			NegProb:       0.35,
			Seed:          seed,
		}, 20+r.Intn(30))
		if err != nil {
			t.Fatal(err)
		}
		// Re-insert the same statements in random order. Every permutation
		// of a consistent statement set is accepted (consistency is a
		// property of the set, per explicit world) and yields the same
		// closure.
		perm := r.Perm(len(stmts))
		shuffled := core.NewBeliefBase()
		for _, i := range perm {
			if _, err := shuffled.Insert(stmts[i]); err != nil {
				t.Logf("seed %d: permuted insert rejected: %v", seed, err)
				return false
			}
		}
		users := make([]core.UserID, m)
		for i := range users {
			users[i] = core.UserID(i + 1)
		}
		// Compare entailed worlds at all support paths and random probes.
		for _, p := range base.SupportPaths() {
			if !base.EntailedWorld(p).EqualWithFlags(shuffled.EntailedWorld(p)) {
				t.Logf("seed %d: world %s differs across insertion orders", seed, p)
				return false
			}
		}
		for probe := 0; probe < 20; probe++ {
			p := randomProbePath(r, users)
			if !base.EntailedWorld(p).Equal(shuffled.EntailedWorld(p)) {
				t.Logf("seed %d: probe world %s differs", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomProbePath(r *rand.Rand, users []core.UserID) core.Path {
	d := r.Intn(5)
	p := make(core.Path, 0, d)
	for len(p) < d {
		u := users[r.Intn(len(users))]
		if len(p) > 0 && p[len(p)-1] == u {
			continue
		}
		p = append(p, u)
	}
	return p
}

// TestClosureMonotoneInsert: adding a consistent statement never removes
// beliefs from the world it is stated in, and only same-key beliefs can
// change anywhere (locality of the overriding union).
func TestQuickClosureLocality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(3)
		base, _, err := gen.Statements(gen.Config{
			Users:         m,
			DepthDist:     []float64{0.4, 0.4, 0.2},
			Participation: gen.Uniform,
			KeyPool:       4,
			Variants:      3,
			NegProb:       0.3,
			Seed:          seed,
		}, 15+r.Intn(20))
		if err != nil {
			t.Fatal(err)
		}
		users := make([]core.UserID, m)
		for i := range users {
			users[i] = core.UserID(i + 1)
		}
		// Draw a new statement consistent with the base.
		g, err := gen.New(gen.Config{
			Users: m, DepthDist: []float64{0.4, 0.4, 0.2}, KeyPool: 4,
			Variants: 3, NegProb: 0.3, Seed: seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var stmt core.Statement
		found := false
		for i := 0; i < 200 && !found; i++ {
			stmt = g.Next()
			probe := base.Clone()
			if ch, err := probe.Insert(stmt); err == nil && ch {
				found = true
			}
		}
		if !found {
			return true // saturated; vacuous
		}
		before := make(map[string]*core.World)
		paths := base.SupportPaths()
		for _, p := range paths {
			before[p.Key()] = base.EntailedWorld(p)
		}
		if _, err := base.Insert(stmt); err != nil {
			t.Fatal(err)
		}
		keyID := stmt.Tuple.KeyID()
		for _, p := range paths {
			after := base.EntailedWorld(p)
			// Compare the sub-worlds excluding the affected key: they must
			// be identical.
			for _, sign := range []core.Sign{core.Pos, core.Neg} {
				for _, e := range after.Entries(sign) {
					if e.Tuple.KeyID() == keyID {
						continue
					}
					prev, ok := before[p.Key()].Entry(e.Tuple, sign)
					if !ok || prev.Explicit != e.Explicit {
						t.Logf("seed %d: unrelated belief %s%s changed at %s", seed, e.Tuple, sign, p)
						return false
					}
				}
				for _, e := range before[p.Key()].Entries(sign) {
					if e.Tuple.KeyID() == keyID {
						continue
					}
					if _, ok := after.Entry(e.Tuple, sign); !ok {
						t.Logf("seed %d: unrelated belief %s%s vanished at %s", seed, e.Tuple, sign, p)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSortStatementsMatchesStatementLess: SortStatements orders gen traces
// exactly as sorting with StatementLess does. The traces have users up to
// 15, where path key "10" sorts before "2".
func TestSortStatementsMatchesStatementLess(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, stmts, err := gen.Statements(gen.Config{
			Users: 15, DepthDist: []float64{0.2, 0.5, 0.3},
			Participation: gen.Uniform, KeyPool: 40, Seed: seed,
		}, 400)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
		want := append([]core.Statement(nil), stmts...)
		sort.Slice(want, func(i, j int) bool { return core.StatementLess(want[i], want[j]) })
		got := append([]core.Statement(nil), stmts...)
		core.SortStatements(got)
		wide := false
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("seed %d: position %d is %s, StatementLess puts %s", seed, i, got[i], want[i])
			}
			for _, u := range want[i].Path {
				wide = wide || u >= 10
			}
		}
		if !wide {
			t.Fatalf("seed %d: no path reaches user 10", seed)
		}
	}
}
