package store_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/kripke"
	"beliefdb/internal/paperex"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

func exampleRelations() []store.Relation {
	return []store.Relation{
		{Name: paperex.SightingsRel, Columns: []store.Column{
			{Name: "sid", Type: val.KindString}, {Name: "uid", Type: val.KindString},
			{Name: "species", Type: val.KindString}, {Name: "date", Type: val.KindString},
			{Name: "location", Type: val.KindString},
		}},
		{Name: paperex.CommentsRel, Columns: []store.Column{
			{Name: "cid", Type: val.KindString}, {Name: "comment", Type: val.KindString},
			{Name: "sid", Type: val.KindString},
		}},
	}
}

// openExample loads the running example into a fresh store.
func openExample(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(exampleRelations())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Alice", "Bob", "Carol"} {
		if _, err := st.AddUser(name); err != nil {
			t.Fatal(err)
		}
	}
	for i, stmt := range paperex.Statements() {
		if _, err := st.Insert(stmt); err != nil {
			t.Fatalf("insert i%d (%s): %v", i+1, stmt, err)
		}
	}
	return st
}

func TestOpenValidation(t *testing.T) {
	if _, err := store.Open([]store.Relation{{Name: "Users", Columns: []store.Column{{Name: "x", Type: val.KindInt}}}}); err == nil {
		t.Error("reserved relation name accepted")
	}
	if _, err := store.Open([]store.Relation{{Name: "R"}}); err == nil {
		t.Error("empty relation accepted")
	}
	if _, err := store.Open([]store.Relation{{Name: "R", Columns: []store.Column{{Name: "tid", Type: val.KindInt}}}}); err == nil {
		t.Error("reserved column name accepted")
	}
	if _, err := store.Open([]store.Relation{
		{Name: "R", Columns: []store.Column{{Name: "k", Type: val.KindInt}}},
		{Name: "R", Columns: []store.Column{{Name: "k", Type: val.KindInt}}},
	}); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestUsers(t *testing.T) {
	st, err := store.Open(exampleRelations())
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.AddUser("Alice")
	if err != nil || a != 1 {
		t.Fatalf("AddUser = %v %v", a, err)
	}
	b, _ := st.AddUser("Bob")
	if b != 2 {
		t.Fatalf("second uid = %v", b)
	}
	if _, err := st.AddUser("Alice"); err == nil {
		t.Error("duplicate user accepted")
	}
	if uid, ok := st.UserID("Bob"); !ok || uid != 2 {
		t.Error("UserID lookup failed")
	}
	if name, ok := st.UserName(1); !ok || name != "Alice" {
		t.Error("UserName lookup failed")
	}
	if got := st.Users(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Users = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	st, _ := store.Open(exampleRelations())
	st.AddUser("Alice")
	if _, err := st.Insert(core.Statement{Path: core.Path{9}, Sign: core.Pos, Tuple: paperex.S11}); err == nil {
		t.Error("unknown user accepted")
	}
	if _, err := st.Insert(core.Statement{Path: core.Path{1, 1}, Sign: core.Pos, Tuple: paperex.S11}); err == nil {
		t.Error("invalid path accepted")
	}
	if _, err := st.Insert(core.Statement{Sign: core.Pos, Tuple: core.NewTuple("Nope", val.Str("x"))}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := st.Insert(core.Statement{Sign: core.Pos, Tuple: core.NewTuple(paperex.SightingsRel, val.Str("x"))}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestFigure5 reproduces the full relational representation of Fig. 5.
// After Rebuild, world ids are assigned in depth-then-path order, which
// matches the figure exactly (0=ε, 1=Alice, 2=Bob, 3=Bob·Alice).
func TestFigure5(t *testing.T) {
	st := openExample(t)
	if err := st.Rebuild(); err != nil {
		t.Fatal(err)
	}

	wids := st.States()
	if len(wids) != 4 {
		t.Fatalf("states = %v", wids)
	}
	wantPaths := map[int64]core.Path{
		0: {}, 1: {paperex.Alice}, 2: {paperex.Bob}, 3: {paperex.Bob, paperex.Alice},
	}
	for wid, p := range wantPaths {
		if !wids[wid].Equal(p) {
			t.Errorf("wid %d = %s, want %s", wid, wids[wid], p)
		}
	}

	// D relation (Fig. 5).
	res, err := st.SQL("SELECT wid, d FROM _d ORDER BY wid")
	if err != nil {
		t.Fatal(err)
	}
	wantD := [][2]int64{{0, 0}, {1, 1}, {2, 1}, {3, 2}}
	for i, w := range wantD {
		if res.Rows[i][0].AsInt() != w[0] || res.Rows[i][1].AsInt() != w[1] {
			t.Errorf("D row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
	// S relation: (1,0), (2,0), (3,1).
	res, err = st.SQL("SELECT wid1, wid2 FROM _s ORDER BY wid1")
	if err != nil {
		t.Fatal(err)
	}
	wantS := [][2]int64{{1, 0}, {2, 0}, {3, 1}}
	if len(res.Rows) != len(wantS) {
		t.Fatalf("S rows = %v", res.Rows)
	}
	for i, w := range wantS {
		if res.Rows[i][0].AsInt() != w[0] || res.Rows[i][1].AsInt() != w[1] {
			t.Errorf("S row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
	// E relation: the nine edges of Fig. 5.
	res, err = st.SQL("SELECT wid1, uid, wid2 FROM _e ORDER BY wid1, uid")
	if err != nil {
		t.Fatal(err)
	}
	wantE := [][3]int64{
		{0, 1, 1}, {0, 2, 2}, {0, 3, 0},
		{1, 2, 2}, {1, 3, 0},
		{2, 1, 3}, {2, 3, 0},
		{3, 2, 2}, {3, 3, 0},
	}
	if len(res.Rows) != len(wantE) {
		t.Fatalf("E has %d rows, want %d: %v", len(res.Rows), len(wantE), res.Rows)
	}
	for i, w := range wantE {
		for j := 0; j < 3; j++ {
			if res.Rows[i][j].AsInt() != w[j] {
				t.Errorf("E row %d = %v, want %v", i, res.Rows[i], w)
			}
		}
	}
	// Sightings_star holds the four sighting alternatives.
	res, err = st.SQL("SELECT COUNT(*) FROM Sightings_star")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("Sightings_star rows = %v", res.Rows)
	}
	// Sightings_v: the eight rows of Fig. 5 identified by (wid, species, s, e).
	res, err = st.SQL(`
		SELECT v.wid, r.species, v.s, v.e
		FROM Sightings_v v, Sightings_star r
		WHERE v.tid = r.tid ORDER BY v.wid, r.species, v.s`)
	if err != nil {
		t.Fatal(err)
	}
	wantV := [][4]string{
		{"0", "bald eagle", "+", "y"},
		{"1", "bald eagle", "+", "n"},
		{"1", "crow", "+", "y"},
		{"2", "bald eagle", "-", "y"},
		{"2", "fish eagle", "-", "y"},
		{"2", "raven", "+", "y"},
		{"3", "bald eagle", "+", "n"},
		{"3", "crow", "+", "n"},
	}
	if len(res.Rows) != len(wantV) {
		t.Fatalf("Sightings_v has %d rows, want %d: %v", len(res.Rows), len(wantV), res.Rows)
	}
	for i, w := range wantV {
		got := [4]string{
			res.Rows[i][0].String(), res.Rows[i][1].String(),
			res.Rows[i][2].String(), res.Rows[i][3].String(),
		}
		if got != w {
			t.Errorf("Sightings_v row %d = %v, want %v", i, got, w)
		}
	}
	// Comments_v: rows of Fig. 5 (wid 1: c1 explicit; wid 2: c2.2 explicit;
	// wid 3: c1 implicit, c2.1 explicit).
	res, err = st.SQL(`
		SELECT v.wid, r.comment, v.s, v.e
		FROM Comments_v v, Comments_star r
		WHERE v.tid = r.tid ORDER BY v.wid, r.comment`)
	if err != nil {
		t.Fatal(err)
	}
	wantC := [][4]string{
		{"1", "found feathers", "+", "y"},
		{"2", "purple-black feathers", "+", "y"},
		{"3", "black feathers", "+", "y"},
		{"3", "found feathers", "+", "n"},
	}
	if len(res.Rows) != len(wantC) {
		t.Fatalf("Comments_v has %d rows, want %d: %v", len(res.Rows), len(wantC), res.Rows)
	}
	for i, w := range wantC {
		got := [4]string{
			res.Rows[i][0].String(), res.Rows[i][1].String(),
			res.Rows[i][2].String(), res.Rows[i][3].String(),
		}
		if got != w {
			t.Errorf("Comments_v row %d = %v, want %v", i, got, w)
		}
	}
}

// TestIncrementalMatchesFigure5Content: without Rebuild, the incremental
// algorithms produce the same world contents (ids may differ by insertion
// order, so compare via paths).
func TestIncrementalMatchesFigure5Content(t *testing.T) {
	st := openExample(t)
	b := paperex.Base()
	paths := []core.Path{
		{}, {paperex.Alice}, {paperex.Bob}, {paperex.Carol},
		{paperex.Bob, paperex.Alice}, {paperex.Alice, paperex.Bob},
	}
	for _, p := range paths {
		got, err := st.WorldContent(p)
		if err != nil {
			t.Fatal(err)
		}
		want := b.EntailedWorld(p)
		if !got.EqualWithFlags(want) {
			t.Errorf("world %s: store=%s core=%s", p, got, want)
		}
	}
}

func TestInsertSemantics(t *testing.T) {
	st := openExample(t)
	// Duplicate explicit insert: no change.
	ch, err := st.Insert(core.Statement{Path: core.Path{paperex.Bob}, Sign: core.Pos, Tuple: paperex.S22})
	if err != nil || ch {
		t.Errorf("duplicate insert: %v %v", ch, err)
	}
	// Conflicting insert rejected and nothing leaks (atomicity).
	before := st.Stats()
	_, err = st.Insert(core.Statement{Path: core.Path{paperex.Bob}, Sign: core.Neg, Tuple: paperex.S22})
	if _, ok := err.(*store.ErrConflict); !ok {
		t.Errorf("want ErrConflict, got %v", err)
	}
	if after := st.Stats(); after.TotalRows != before.TotalRows {
		t.Errorf("failed insert leaked rows: %d -> %d", before.TotalRows, after.TotalRows)
	}
	// Implicit-to-explicit flip: Alice explicitly asserts the bald eagle
	// she already believes implicitly.
	ch, err = st.Insert(core.Statement{Path: core.Path{paperex.Alice}, Sign: core.Pos, Tuple: paperex.S11})
	if err != nil || !ch {
		t.Fatalf("flip insert: %v %v", ch, err)
	}
	w, _ := st.WorldContent(core.Path{paperex.Alice})
	if e, ok := w.Entry(paperex.S11, core.Pos); !ok || !e.Explicit {
		t.Error("implicit belief not flipped to explicit")
	}
}

func TestDeleteSemantics(t *testing.T) {
	st := openExample(t)
	// Deleting a missing statement is a no-op.
	ch, err := st.Delete(core.Statement{Path: core.Path{paperex.Carol}, Sign: core.Pos, Tuple: paperex.S11})
	if err != nil || ch {
		t.Errorf("phantom delete: %v %v", ch, err)
	}
	// Delete Bob's explicit disagreement with the bald eagle; the root
	// content flows back into his world (s12 is still negated).
	ch, err = st.Delete(core.Statement{Path: core.Path{paperex.Bob}, Sign: core.Neg, Tuple: paperex.S11})
	if err != nil || !ch {
		t.Fatalf("delete: %v %v", ch, err)
	}
	got, err := st.Entails(core.Path{paperex.Bob}, paperex.S11, core.Pos)
	if err != nil {
		t.Fatal(err)
	}
	// Bob still believes the raven (s22, key s2); s11 has key s1 and no
	// blocker remains, so it must be inherited again.
	if !got {
		t.Error("deleted negative did not unblock inheritance")
	}
	// Agreement with the declarative semantics after deletion.
	b := paperex.Base()
	b.Delete(core.Statement{Path: core.Path{paperex.Bob}, Sign: core.Neg, Tuple: paperex.S11})
	for _, p := range []core.Path{{}, {paperex.Bob}, {paperex.Alice}, {paperex.Bob, paperex.Alice}} {
		w, err := st.WorldContent(p)
		if err != nil {
			t.Fatal(err)
		}
		if !w.EqualWithFlags(b.EntailedWorld(p)) {
			t.Errorf("world %s after delete: store=%s core=%s", p, w, b.EntailedWorld(p))
		}
	}
}

func TestVacuum(t *testing.T) {
	st := openExample(t)
	// Delete Bob's fish-eagle negative; the s12 tuple becomes unreferenced.
	if _, err := st.Delete(core.Statement{Path: core.Path{paperex.Bob}, Sign: core.Neg, Tuple: paperex.S12}); err != nil {
		t.Fatal(err)
	}
	removed, err := st.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("vacuum removed %d rows, want 1", removed)
	}
}

func TestStats(t *testing.T) {
	st := openExample(t)
	s := st.Stats()
	if s.Annotations != 8 || s.Users != 3 || s.States != 4 {
		t.Errorf("stats = %+v", s)
	}
	// |R*| counts every internal table row.
	sum := 0
	for _, n := range s.TableRows {
		sum += n
	}
	if sum != s.TotalRows || s.TotalRows == 0 {
		t.Errorf("TotalRows = %d, sum = %d", s.TotalRows, sum)
	}
	if s.Overhead() <= 1 {
		t.Errorf("overhead = %f", s.Overhead())
	}
}

// statementsOf generates a consistent random workload and applies it to
// both a store and a core base.
func loadRandom(t testing.TB, seed int64, n, m int) (*store.Store, *core.BeliefBase, []core.UserID) {
	g, err := gen.New(gen.Config{
		Users:         m,
		DepthDist:     []float64{0.35, 0.35, 0.2, 0.1},
		Participation: gen.Zipf,
		KeyPool:       8,
		Variants:      3,
		NegProb:       0.3,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open([]store.Relation{genRelation()})
	if err != nil {
		t.Fatal(err)
	}
	users := make([]core.UserID, m)
	for i := 0; i < m; i++ {
		uid, err := st.AddUser(fmt.Sprintf("user%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		users[i] = uid
	}
	base := core.NewBeliefBase()
	_, _, err = g.Load(n, func(stmt core.Statement) (bool, error) {
		ch1, err1 := st.Insert(stmt)
		ch2, err2 := base.Insert(stmt)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("store/core disagree on %s: %v vs %v", stmt, err1, err2)
		}
		if err1 != nil {
			return false, err1
		}
		if ch1 != ch2 {
			t.Fatalf("store/core changed disagree on %s: %v vs %v", stmt, ch1, ch2)
		}
		return ch1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, base, users
}

func genRelation() store.Relation {
	cols := make([]store.Column, 0, 5)
	for _, c := range gen.RelColumns() {
		cols = append(cols, store.Column{Name: c, Type: val.KindString})
	}
	return store.Relation{Name: gen.DefaultRel, Columns: cols}
}

// TestQuickStoreMatchesCore: the incremental store, the declarative
// closure, and the canonical Kripke structure agree on entailment and
// world contents for random workloads.
func TestQuickStoreMatchesCore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(4)
		n := 20 + r.Intn(40)
		st, base, users := loadRandom(t, seed, n, m)
		k := kripke.Build(base, users)

		// Structural agreement: state count and edge count.
		stats := st.Stats()
		if stats.States != k.Len() {
			t.Logf("seed %d: N store=%d kripke=%d", seed, stats.States, k.Len())
			return false
		}
		if stats.TableRows["_e"] != k.EdgeCount() {
			t.Logf("seed %d: |E| store=%d kripke=%d", seed, stats.TableRows["_e"], k.EdgeCount())
			return false
		}
		// World-content agreement for every state plus random off-state paths.
		for _, s := range k.States() {
			w, err := st.WorldContent(s.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !w.EqualWithFlags(s.World) {
				t.Logf("seed %d: world %s differs:\n store=%s\n kripke=%s", seed, s.Path, w, s.World)
				return false
			}
		}
		for probe := 0; probe < 20; probe++ {
			p := randomPath(r, users)
			w, err := st.WorldContent(p)
			if err != nil {
				t.Fatal(err)
			}
			if !w.Equal(base.EntailedWorld(p)) {
				t.Logf("seed %d: off-state world %s differs", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickIncrementalMatchesRebuild: applying the incremental algorithms
// yields the same logical representation as rebuilding from scratch.
func TestQuickIncrementalMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(3)
		n := 15 + r.Intn(30)
		st, base, users := loadRandom(t, seed, n, m)

		// Random deletions exercise the reconciliation path.
		stmts, err := st.ExplicitStatements()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(stmts)/4; i++ {
			victim := stmts[r.Intn(len(stmts))]
			ch1, err := st.Delete(victim)
			if err != nil {
				t.Fatal(err)
			}
			ch2 := base.Delete(victim)
			if ch1 != ch2 {
				t.Fatalf("delete disagree on %s", victim)
			}
		}

		// Snapshot world contents, rebuild, compare.
		type snap struct {
			path  string
			world string
		}
		var before []snap
		k := kripke.Build(base, users)
		for _, s := range k.States() {
			w, err := st.WorldContent(s.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !w.EqualWithFlags(s.World) {
				t.Logf("seed %d: post-delete world %s differs:\n store=%s\n kripke=%s", seed, s.Path, w, s.World)
				return false
			}
			before = append(before, snap{s.Path.Key(), w.String()})
		}
		if err := st.Rebuild(); err != nil {
			t.Fatal(err)
		}
		for _, sn := range before {
			var p core.Path
			if sn.path != "" {
				for _, part := range splitPathKey(sn.path) {
					p = append(p, part)
				}
			}
			w, err := st.WorldContent(p)
			if err != nil {
				t.Fatal(err)
			}
			if w.String() != sn.world {
				t.Logf("seed %d: world %s changed across rebuild", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func splitPathKey(k string) []core.UserID {
	var out []core.UserID
	cur := int64(0)
	has := false
	for i := 0; i <= len(k); i++ {
		if i == len(k) || k[i] == '.' {
			if has {
				out = append(out, core.UserID(cur))
			}
			cur, has = 0, false
			continue
		}
		cur = cur*10 + int64(k[i]-'0')
		has = true
	}
	return out
}

func randomPath(r *rand.Rand, users []core.UserID) core.Path {
	d := r.Intn(4)
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

// TestWidCacheAgreesWithE: resolving a state's path by walking E edges from
// the root lands on the state's wid (Algorithm 2 line 1 equivalence).
func TestWidCacheAgreesWithE(t *testing.T) {
	st, _, _ := loadRandom(t, 42, 60, 4)
	for wid, p := range st.States() {
		cur := int64(0)
		for _, u := range p {
			res, err := st.SQL(fmt.Sprintf(
				"SELECT wid2 FROM _e WHERE wid1 = %d AND uid = %d", cur, u))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("edge (%d, %d): %d rows", cur, u, len(res.Rows))
			}
			cur = res.Rows[0][0].AsInt()
		}
		if cur != wid {
			t.Errorf("E-walk of %s = %d, want %d", p, cur, wid)
		}
	}
}

// TestStaleSuffixLinkFix: creating a state that is a suffix of existing
// deeper states refreshes their S links (the paper omits this).
func TestStaleSuffixLinkFix(t *testing.T) {
	st, err := store.Open([]store.Relation{genRelation()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := st.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tup := func(k, v string) core.Tuple {
		return core.NewTuple(gen.DefaultRel, val.Str(k), val.Str("o"), val.Str(v), val.Str("d"), val.Str("l"))
	}
	// Create state 2·1 first, then state 1.
	mustIns := func(p core.Path, s core.Sign, tu core.Tuple) {
		t.Helper()
		if _, err := st.Insert(core.Statement{Path: p, Sign: s, Tuple: tu}); err != nil {
			t.Fatal(err)
		}
	}
	mustIns(core.Path{2, 1}, core.Pos, tup("q", "x"))
	mustIns(core.Path{1}, core.Pos, tup("k", "v1"))

	// S(2·1) must now point at state 1, not the root.
	widDeep, _ := st.WidOf(core.Path{2, 1})
	widOne, _ := st.WidOf(core.Path{1})
	res, err := st.SQL(fmt.Sprintf("SELECT wid2 FROM _s WHERE wid1 = %d", widDeep))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != widOne {
		t.Errorf("S(2·1) = %v, want %d", res.Rows, widOne)
	}
	// And the new belief at 1 must reach 2·1.
	got, err := st.Entails(core.Path{2, 1}, tup("k", "v1"), core.Pos)
	if err != nil || !got {
		t.Errorf("belief at 1 did not propagate to 2·1: %v %v", got, err)
	}
	// Now an insert at the root must flow through 1 into 2·1 (blocked
	// content check): a conflicting variant is blocked at 1.
	mustIns(core.Path{}, core.Pos, tup("k", "v2"))
	if ok, _ := st.Entails(core.Path{2, 1}, tup("k", "v2"), core.Pos); ok {
		t.Error("v2 must be blocked at 2·1 (explicit v1 at world 1)")
	}
	if ok, _ := st.Entails(core.Path{2}, tup("k", "v2"), core.Pos); !ok {
		t.Error("v2 must reach world 2")
	}
}
