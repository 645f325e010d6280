package beliefdb_test

// Property-based durability round-trip: random annotation workloads from
// internal/gen are applied simultaneously to a durable database and an
// in-memory shadow, with deletes, rebuilds, and checkpoints interleaved (the
// shadow rebuilds where the durable side checkpoints: reopening loads the
// image's statements through the commit path). After close + reopen the
// recovered database must be indistinguishable from the shadow: identical
// Dump(), Statements(), Stats(), and World() content for every user path. A fixed seed corpus keeps CI deterministic
// while covering structurally different histories (different depth mixes,
// conflict rates, checkpoint positions).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"beliefdb"
	"beliefdb/internal/gen"
)

func genSchema() beliefdb.Schema {
	var cols []beliefdb.Column
	for _, c := range gen.RelColumns() {
		cols = append(cols, beliefdb.Column{Name: c, Type: beliefdb.KindString})
	}
	return beliefdb.Schema{Relations: []beliefdb.Relation{{Name: gen.DefaultRel, Columns: cols}}}
}

// roundTripCase is one corpus entry.
type roundTripCase struct {
	seed       int64
	users      int
	accepted   int       // accepted inserts to draw
	depthDist  []float64 // annotation nesting mix
	deleteEach int       // delete one earlier statement every k accepts
	checkpoint int       // checkpoint every k accepts (0: never)
	rebuildAt  int       // run Rebuild after this many accepts (0: never)
}

func roundTripCorpus() []roundTripCase {
	return []roundTripCase{
		{seed: 1, users: 4, accepted: 60, depthDist: []float64{0.3, 0.5, 0.2}, deleteEach: 7, checkpoint: 25},
		{seed: 2, users: 3, accepted: 50, depthDist: []float64{0.1, 0.6, 0.3}, deleteEach: 5, checkpoint: 0, rebuildAt: 30},
		{seed: 3, users: 5, accepted: 70, depthDist: []float64{0.5, 0.3, 0.15, 0.05}, deleteEach: 9, checkpoint: 20},
		{seed: 4, users: 2, accepted: 40, depthDist: []float64{0.2, 0.8}, deleteEach: 4, checkpoint: 11, rebuildAt: 22},
		{seed: 5, users: 4, accepted: 45, depthDist: []float64{0.25, 0.5, 0.25}, deleteEach: 6, checkpoint: 44},
		{seed: 6, users: 3, accepted: 40, depthDist: []float64{0.3, 0.4, 0.3}, deleteEach: 8, checkpoint: 13},
	}
}

func TestDurabilityRoundTripProperty(t *testing.T) {
	for _, tc := range roundTripCorpus() {
		tc := tc
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*beliefdb.DB, error) {
				return beliefdb.OpenAt(dir, genSchema())
			}
			openShadow := func() (*beliefdb.DB, error) {
				return beliefdb.Open(genSchema())
			}

			db, err := open()
			if err != nil {
				t.Fatal(err)
			}
			shadow, err := openShadow()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= tc.users; i++ {
				name := fmt.Sprintf("u%d", i)
				if _, err := db.AddUser(name); err != nil {
					t.Fatal(err)
				}
				if _, err := shadow.AddUser(name); err != nil {
					t.Fatal(err)
				}
			}

			g, err := gen.New(gen.Config{
				Users: tc.users, DepthDist: tc.depthDist, KeyPool: 12, Variants: 3, Seed: tc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(tc.seed * 7919))

			accepted := 0
			attempts := 0
			for accepted < tc.accepted && attempts < 50*tc.accepted {
				attempts++
				stmt := g.Next()
				dc, derr := db.InsertBelief(stmt.Path, stmt.Sign, stmt.Tuple)
				sc, serr := shadow.InsertBelief(stmt.Path, stmt.Sign, stmt.Tuple)
				if dc != sc || (derr == nil) != (serr == nil) {
					t.Fatalf("insert %s diverged: durable (%v, %v) vs shadow (%v, %v)",
						stmt, dc, derr, sc, serr)
				}
				if derr != nil || !dc {
					continue
				}
				accepted++

				if tc.deleteEach > 0 && accepted%tc.deleteEach == 0 {
					// Delete a random earlier statement; picking from the
					// shadow keeps both sides in lockstep.
					stmts, err := shadow.Statements()
					if err != nil {
						t.Fatal(err)
					}
					if len(stmts) > 0 {
						victim := stmts[r.Intn(len(stmts))]
						dc, derr := db.DeleteBelief(victim.Path, victim.Sign, victim.Tuple)
						sc, serr := shadow.DeleteBelief(victim.Path, victim.Sign, victim.Tuple)
						if dc != sc || (derr == nil) != (serr == nil) {
							t.Fatalf("delete %s diverged: (%v,%v) vs (%v,%v)", victim, dc, derr, sc, serr)
						}
					}
				}
				if tc.rebuildAt > 0 && accepted == tc.rebuildAt {
					if err := db.Rebuild(); err != nil {
						t.Fatal(err)
					}
					if err := shadow.Rebuild(); err != nil {
						t.Fatal(err)
					}
				}
				if tc.checkpoint > 0 && accepted%tc.checkpoint == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					// The image holds statements and reopening loads them
					// through the commit path: the shadow's equivalent is a
					// Rebuild here.
					if err := shadow.Rebuild(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if accepted < tc.accepted {
				t.Fatalf("only %d/%d statements accepted after %d attempts", accepted, tc.accepted, attempts)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := open()
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			assertSameDB(t, shadow, re)
			wantStmts, err := shadow.Statements()
			if err != nil {
				t.Fatal(err)
			}
			gotStmts, err := re.Statements()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(wantStmts) != fmt.Sprint(gotStmts) {
				t.Errorf("Statements mismatch:\nwant %v\ngot  %v", wantStmts, gotStmts)
			}
			re.Close()

			// Recovery is idempotent: a second reopen (now replaying the
			// same snapshot + WAL again) lands in the same state.
			re2, err := open()
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			assertSameDB(t, shadow, re2)
			re2.Close()
		})
	}
}

// TestReopenEqualsRebuild pins what a snapshot is: the belief database, not
// its representation. A gen trace with frequent deletes leaves states no
// statement supports and tuples no valuation references; after a
// checkpoint, the image alone (no WAL record after it) reopens to exactly
// the live store after Rebuild — every table's row count, the dump, and the
// world at every state either store holds and every depth-2 path. It is
// also a differential test of the update algorithms (loading commits the
// statements through them) against the kripke construction Rebuild uses.
func TestReopenEqualsRebuild(t *testing.T) {
	dir := t.TempDir()
	db, err := beliefdb.OpenAt(dir, genSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const users = 4
	for i := 1; i <= users; i++ {
		if _, err := db.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := gen.New(gen.Config{
		Users: users, DepthDist: []float64{0.3, 0.4, 0.2, 0.1}, KeyPool: 10, Variants: 3, NegProb: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	deleted := 0
	for i := 0; i < 400; i++ {
		stmt := g.Next()
		if ok, err := db.InsertBelief(stmt.Path, stmt.Sign, stmt.Tuple); err != nil || !ok || i%3 != 0 {
			continue
		}
		stmts, err := db.Statements()
		if err != nil {
			t.Fatal(err)
		}
		victim := stmts[r.Intn(len(stmts))]
		if ok, err := db.DeleteBelief(victim.Path, victim.Sign, victim.Tuple); err != nil || !ok {
			t.Fatalf("delete %s = %v, %v", victim, ok, err)
		}
		deleted++
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The image and the empty WAL of its fresh epoch, before the live
	// store's Rebuild journals anything.
	image := t.TempDir()
	for _, f := range []string{"snapshot.bdb", "wal.bdb"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	live := db.Stats()
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rebuilt := db.Stats()
	if deleted == 0 || rebuilt.States >= live.States || rebuilt.TotalRows >= live.TotalRows {
		t.Fatalf("vacuous trace: %d deletes, live %s rebuilt %s", deleted, live, rebuilt)
	}

	re, err := beliefdb.OpenAt(image, genSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameDB(t, db, re)
	if got := re.Stats(); got.String() != rebuilt.String() {
		t.Errorf("reopened stats:\n%swant Rebuild's\n%s", got, rebuilt)
	}
	paths := map[string]beliefdb.Path{}
	for _, st := range []*beliefdb.DB{db, re} {
		for _, p := range st.Store().States() {
			paths[fmt.Sprint(p)] = p
		}
	}
	for _, p := range paths {
		if w, g := worldFingerprint(t, db, p), worldFingerprint(t, re, p); w != g {
			t.Errorf("World(%v):\n--- rebuilt ---\n%s\n--- reopened ---\n%s", p, w, g)
		}
	}
}
