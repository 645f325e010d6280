package store

// One seeded trace, every way into the store, one oracle: the commit
// primitive has many callers (Insert/Delete/Replace, AddUser, ApplyBatch,
// BulkLoad, the Coalescer, replica apply, WAL replay and snapshot loading,
// on reopen and on replica bootstrap), and each must leave exactly the
// state core.BeliefBase derives from the same operations, and the users
// the same registrations bind. Raw SQL is no
// way in: every script that would write the internal schema is refused.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"beliefdb/internal/core"
	"beliefdb/internal/gen"
	"beliefdb/internal/snapshot"
	"beliefdb/internal/wal"
)

const traceUsers = 6

// genTrace draws groups of one to four operations: mostly generator
// inserts (duplicates and Γ-conflicts arise by themselves on the small key
// pool), plus deletes and replaces of statements some earlier insert named —
// present, already deleted, or rejected, so no-op forms occur too. About
// one group in six also registers a user: a new name, or the last one
// again (refused if it is bound, whether before the round or earlier in
// it; bound now if its first attempt rolled back). Registrations draw from
// their own source, so the statement stream does not depend on them.
func genTrace(seed int64, n int) [][]BatchOp {
	g, err := gen.New(gen.Config{
		Users: traceUsers, DepthDist: []float64{0.35, 0.35, 0.2, 0.1},
		Participation: gen.Zipf, KeyPool: 8, Variants: 3, NegProb: 0.3, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(seed))
	ru := rand.New(rand.NewSource(^seed))
	var seen []core.Statement
	var names []string
	var trace [][]BatchOp
	for total := 0; total < n; {
		group := make([]BatchOp, 1+r.Intn(4))
		for i := range group {
			switch x := r.Intn(10); {
			case x < 2 && len(seen) > 0:
				group[i] = BatchOp{Delete: true, Stmt: seen[r.Intn(len(seen))]}
			case x < 4 && len(seen) > 0:
				group[i] = BatchOp{Replace: true, Stmt: seen[r.Intn(len(seen))], NewVals: g.Next().Tuple.Vals}
			default:
				s := g.Next()
				seen = append(seen, s)
				group[i] = BatchOp{Stmt: s}
			}
		}
		if ru.Intn(6) == 0 {
			if len(names) == 0 || ru.Intn(3) > 0 {
				names = append(names, fmt.Sprintf("r%d", len(names)+1))
			}
			group = slices.Insert(group, ru.Intn(len(group)+1), BatchOp{User: names[len(names)-1]})
		}
		trace = append(trace, group)
		total += len(group)
	}
	return trace
}

// singletons regroups a trace so every operation commits alone.
func singletons(trace [][]BatchOp) [][]BatchOp {
	var out [][]BatchOp
	for _, g := range trace {
		for _, op := range g {
			out = append(out, []BatchOp{op})
		}
	}
	return out
}

// oracle applies the groups to the reference semantics, each group
// all-or-nothing, and counts the groups a conflict or a bound name rolled
// back. users lists the names bound, in uid order: traceStore's, then
// each registration of a committed group.
func oracle(groups [][]BatchOp) (base *core.BeliefBase, users []string, rolledBack int) {
	base = core.NewBeliefBase()
	for i := 1; i <= traceUsers; i++ {
		users = append(users, fmt.Sprintf("u%d", i))
	}
	for _, g := range groups {
		next, nextUsers, ok := base.Clone(), slices.Clone(users), true
		for _, op := range g {
			var err error
			switch {
			case op.User != "":
				if slices.Contains(nextUsers, op.User) {
					err = fmt.Errorf("user %q already exists", op.User)
				}
				nextUsers = append(nextUsers, op.User)
			case op.Delete:
				next.Delete(op.Stmt)
			case op.Replace:
				if next.Delete(op.Stmt) {
					repl := op.Stmt
					repl.Tuple = core.Tuple{Rel: op.Stmt.Tuple.Rel, Vals: op.NewVals}
					_, err = next.Insert(repl)
				}
			default:
				_, err = next.Insert(op.Stmt)
			}
			ok = ok && err == nil
		}
		if ok {
			base, users = next, nextUsers
		} else {
			rolledBack++
		}
	}
	return base, users, rolledBack
}

// userNames lists the store's users by name, in uid order, failing unless
// the uids are 1, 2, … with no gap.
func userNames(t *testing.T, st *Store) []string {
	t.Helper()
	var out []string
	for i, uid := range st.Users() {
		if uid != core.UserID(i+1) {
			t.Errorf("user ids %v are not 1..%d", st.Users(), len(st.Users()))
		}
		name, _ := st.UserName(uid)
		out = append(out, name)
	}
	return out
}

func traceStore(t *testing.T, dir string) *Store {
	t.Helper()
	var st *Store
	var err error
	if dir == "" {
		st, err = Open([]Relation{GenTestRelation()})
	} else {
		st, err = OpenAt(dir, []Relation{GenTestRelation()})
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= traceUsers; i++ {
		if _, err := st.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// applySingle commits one operation through its single-statement method.
func applySingle(st *Store, op BatchOp) {
	switch {
	case op.User != "":
		st.AddUser(op.User)
	case op.Delete:
		st.Delete(op.Stmt)
	case op.Replace:
		st.Replace(op.Stmt, core.Tuple{Rel: op.Stmt.Tuple.Rel, Vals: op.NewVals})
	default:
		st.Insert(op.Stmt)
	}
}

func isInsert(op BatchOp) bool { return op.User == "" && !op.Delete && !op.Replace }

func walOps(ops []BatchOp) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = op.walOp()
	}
	return out
}

// copyFixture copies testdata/<name> into a fresh directory OpenAt may
// lock, truncate and append to.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata", name, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestEntryPointsMatchOracle(t *testing.T) {
	trace := genTrace(42, 160)
	groupings := map[string][][]BatchOp{
		"single": singletons(trace), "trace": trace,
		// The trace again, reloaded from an image half-way: the
		// representation after the reload is Rebuild's.
		"reloaded": trace,
	}
	half := len(trace) / 2

	entries := []struct {
		name     string
		grouping string
		run      func(t *testing.T, groups [][]BatchOp) *Store
	}{
		{"Insert/Delete/Replace", "single", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for _, g := range groups {
				applySingle(st, g[0])
			}
			return st
		}},
		{"BulkLoad", "single", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for len(groups) > 0 {
				if !isInsert(groups[0][0]) {
					applySingle(st, groups[0][0])
					groups = groups[1:]
					continue
				}
				// One load per run of inserts; a rejected statement rolls
				// back alone and the load goes on.
				err := st.BulkLoad(func(insert func(core.Statement) (bool, error)) error {
					for ; len(groups) > 0 && isInsert(groups[0][0]); groups = groups[1:] {
						insert(groups[0][0].Stmt)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			return st
		}},
		{"ApplyReplicated", "single", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for _, g := range groups {
				// A bare registration is what every WAL written before
				// registrations joined the batch holds; it still replays.
				if g[0].User != "" {
					if err := st.ApplyReplicated(g[0].walOp()); err != nil {
						t.Fatal(err)
					}
					continue
				}
				// A bare statement record is legacy: the replica refuses it
				// and takes the group of one a current primary ships.
				if err := st.ApplyReplicated(g[0].walOp()); !legacyRefusal(err) {
					t.Fatalf("ApplyReplicated(%s) = %v, want a legacy-record refusal", g[0].walOp(), err)
				}
				if err := st.ApplyReplicatedGroup(walOps(g), ""); err != nil {
					t.Fatal(err)
				}
			}
			return st
		}},
		{"ApplyBatch", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for _, g := range groups {
				st.ApplyBatch(g)
			}
			return st
		}},
		{"ApplyBatchGroupTokens", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for i := 0; i < len(groups); i += 3 {
				st.ApplyBatchGroupTokens(groups[i:min(i+3, len(groups))], nil)
			}
			return st
		}},
		{"Coalescer.SubmitToken", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			c := NewCoalescer(st)
			defer c.Close()
			for i, g := range groups {
				// The resend is deduplicated when the group committed and
				// re-derives the same conflict when it did not.
				c.SubmitToken(g, fmt.Sprintf("tok-%d", i))
				c.SubmitToken(g, fmt.Sprintf("tok-%d", i))
			}
			return st
		}},
		{"ApplyReplicatedGroup", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for i, g := range groups {
				for redelivery := 0; redelivery < 2; redelivery++ {
					if err := st.ApplyReplicatedGroup(walOps(g), fmt.Sprintf("tok-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			return st
		}},
		{"close + WAL replay", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			dir := t.TempDir()
			st := traceStore(t, dir)
			for _, g := range groups {
				st.ApplyBatch(g)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenAt(dir, []Relation{GenTestRelation()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() })
			return re
		}},
		{"checkpoint mid-trace + reopen", "reloaded", func(t *testing.T, groups [][]BatchOp) *Store {
			dir := t.TempDir()
			st := traceStore(t, dir)
			for i, g := range groups {
				if i == half {
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				st.ApplyBatch(g)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenAt(dir, []Relation{GenTestRelation()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() })
			return re
		}},
		{"replica bootstrap from ReplicationSnapshot", "reloaded", func(t *testing.T, groups [][]BatchOp) *Store {
			primaryDir := t.TempDir()
			primary := traceStore(t, primaryDir)
			t.Cleanup(func() { primary.Close() })
			for _, g := range groups[:half] {
				primary.ApplyBatch(g)
			}
			m, err := primary.ReplicationSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups[half:] {
				primary.ApplyBatch(g)
			}
			// Seed the replica's directory as a follower does, then ship
			// the primary's records from the position the image covers.
			dir := t.TempDir()
			if err := snapshot.WriteFile(filepath.Join(dir, SnapshotFileName), m); err != nil {
				t.Fatal(err)
			}
			replica, err := OpenAt(dir, []Relation{GenTestRelation()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { replica.Close() })
			ops := journal(t, primaryDir)[m.WalApplied:]
			for k := 0; k < len(ops); k++ {
				if ops[k].Kind != wal.KindBatchBegin {
					t.Fatalf("primary shipped %s outside a group", ops[k])
				}
				n := int(ops[k].Count)
				if err := replica.ApplyReplicatedGroup(ops[k+1:k+1+n], ops[k].Token); err != nil {
					t.Fatal(err)
				}
				k += n
			}
			return replica
		}},
		{"raw SQL battery", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			st := traceStore(t, "")
			for _, g := range groups {
				st.ApplyBatch(g)
			}
			rawSQLBattery(t, st)
			return st
		}},
		{"raw SQL battery + WAL replay", "trace", func(t *testing.T, groups [][]BatchOp) *Store {
			dir := t.TempDir()
			st := traceStore(t, dir)
			for _, g := range groups {
				st.ApplyBatch(g)
			}
			rawSQLBattery(t, st)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenAt(dir, []Relation{GenTestRelation()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() })
			if !findIndex(re, "S_v", "S_v_sign").exists {
				t.Error("the battery's journaled index is missing after replay")
			}
			return re
		}},
	}

	// |R*| depends on which worlds the history created, so it is compared
	// between entry points that committed the same groups. A reload
	// half-way through the trace is a Rebuild there.
	mid := traceStore(t, "")
	for i, g := range trace {
		if i == half {
			if err := mid.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
		mid.ApplyBatch(g)
	}
	totalRows := map[string]int{"reloaded": mid.Stats().TotalRows}
	if totalRows["reloaded"] == 0 {
		t.Fatal("empty reload reference")
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			groups := groupings[e.grouping]
			base, users, rolledBack := oracle(groups)
			if rolledBack == 0 || base.Len() == 0 || len(users) <= traceUsers {
				t.Fatalf("vacuous trace: %d statements, %d users, %d groups rolled back", base.Len(), len(users), rolledBack)
			}
			st := e.run(t, groups)
			if g, w := fmt.Sprint(userNames(t, st)), fmt.Sprint(users); g != w {
				t.Errorf("users:\n got %s\nwant %s", g, w)
			}

			got, err := st.ExplicitStatements()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := sortedStrings(got), sortedStrings(base.Statements()); g != w {
				t.Errorf("explicit statements:\n got %s\nwant %s", g, w)
			}
			stats := st.Stats()
			if stats.Annotations != base.Len() {
				t.Errorf("n = %d, oracle holds %d statements", stats.Annotations, base.Len())
			}
			if want, ok := totalRows[e.grouping]; !ok {
				totalRows[e.grouping] = stats.TotalRows
			} else if stats.TotalRows != want {
				t.Errorf("|R*| = %d, want %d", stats.TotalRows, want)
			}

			// Every state the store keeps (some lost their last explicit
			// statement), every supported path, and off-state paths.
			paths := base.SupportPaths()
			for _, p := range st.States() {
				paths = append(paths, p, p.Prepend(core.UserID(1+len(p)%traceUsers)))
			}
			for _, p := range paths {
				if !p.Valid() {
					continue
				}
				w, err := st.WorldContent(p)
				if err != nil {
					t.Fatal(err)
				}
				if want := base.EntailedWorld(p); !w.EqualWithFlags(want) {
					t.Errorf("world %s:\n got %s\nwant %s", p, w, want)
				}
			}
		})
	}
}

// rawSQLBattery tries every way raw SQL could write the internal schema
// after a trace: each script must be refused by name and journal nothing.
// A script of a read and index DDL must then be accepted and journaled.
// The caller compares every world with the oracle afterwards.
func rawSQLBattery(t *testing.T, st *Store) {
	t.Helper()
	scripts := map[string]string{
		"create table notes (x int)": "CREATE TABLE",
		"drop table S_v":             "DROP TABLE",
		"BEGIN":                      "BEGIN",
		"select U.uid from Users U; insert into Users values (99, 'ghost')": "INSERT",
	}
	for _, tc := range []struct{ table, row, set string }{
		{"Users", "(99, 'ghost')", "name = 'ghost'"},
		{"_e", "(0, 1, 0)", "wid2 = 0"},
		{"_d", "(999, 1)", "d = 0"},
		{"_s", "(999, 0)", "wid2 = 0"},
		{"S_star", "(999, 'k', 'o', 'sp', 'd', 'l')", "species = 'sp'"},
		{"S_v", "(0, 1, 'k', '-', 'y')", "s = '-'"},
	} {
		scripts["insert into "+tc.table+" values "+tc.row] = "INSERT"
		scripts["update "+tc.table+" set "+tc.set] = "UPDATE"
		scripts["delete from "+tc.table] = "DELETE"
	}
	for script, kw := range scripts {
		before := st.walCount
		if _, err := st.SQL(script); err == nil || !strings.Contains(err.Error(), refusal(kw)) {
			t.Errorf("SQL(%q) = %v, want %s refused", script, err, kw)
		}
		if st.walCount != before {
			t.Errorf("refused SQL(%q) journaled %d records", script, st.walCount-before)
		}
	}
	before := st.walCount
	if _, err := st.SQL("select count(*) from S_v; create ordered index S_v_sign on S_v (s)"); err != nil {
		t.Fatal(err)
	}
	if st.durable && st.walCount != before+1 {
		t.Errorf("index DDL journaled %d records, want 1", st.walCount-before)
	}
}

func sortedStrings(stmts []core.Statement) string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestLazyDirectoryRefused: the lazy representation is gone, and a
// directory one of its constructors created must not be replayed as if its
// explicit-only rows were a materialised store. The flag is persisted in
// two places; each fixture (written by the last commit that had
// OpenLazyAt) carries it in one.
func TestLazyDirectoryRefused(t *testing.T) {
	for fixture, place := range map[string]string{
		"lazy_wal":  "WAL's schema record", // never checkpointed
		"lazy_snap": "snapshot header",     // checkpointed: the WAL was reset
	} {
		dir := copyFixture(t, fixture)
		_, err := OpenAt(dir, []Relation{GenTestRelation()})
		if err == nil || !strings.Contains(err.Error(), place) || !strings.Contains(err.Error(), "lazy") {
			t.Errorf("%s: OpenAt = %v, want an error naming the lazy flag in the %s", fixture, err, place)
		}
	}
}

// TestOlderFormatRefused: a directory an older binary wrote — a WAL holding
// a legacy record, in the prefix a snapshot covers too, or a version-1/2
// image — is refused with an error naming the record or the version and
// the commit that upgrades it. The refused open changes no byte of the
// directory and releases its lock: a second open is refused the same way.
func TestOlderFormatRefused(t *testing.T) {
	fixture := func(name string) func(*testing.T) string {
		return func(t *testing.T) string { return copyFixture(t, name) }
	}
	image := func(file string) func(*testing.T) string {
		return func(t *testing.T) string {
			data, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	rawDML := []wal.Op{wal.AddUser("alice"), wal.SQL("insert into Users values (2, 'ghost')")}
	covered := func(t *testing.T) string {
		// A v3 image covering every record: the old binary that wrote it
		// had replayed the legacy record before checkpointing.
		dir := legacyWAL(t, rawDML...)
		st, err := Open(crashRels())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddUser("alice"); err != nil {
			t.Fatal(err)
		}
		m := st.SnapshotModel()
		m.WalEpoch, m.WalApplied = 0, uint64(1+len(rawDML))
		if err := snapshot.WriteFile(filepath.Join(dir, SnapshotFileName), m); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	tornTail := func(t *testing.T) string {
		// A torn record after the legacy records: a refused open must not
		// cut it, any more than it writes anything else.
		dir := copyFixture(t, "legacy_txn")
		f, err := os.OpenFile(filepath.Join(dir, WALFileName), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	gen, crash := []Relation{GenTestRelation()}, crashRels()
	for _, tc := range []struct {
		name string
		rels []Relation
		dir  func(*testing.T) string
		want string
	}{
		{"legacy", gen, fixture("legacy"), "wal.bdb record 10 (Replace("},
		{"legacy_txn", crash, fixture("legacy_txn"), `wal.bdb record 4 (SQL("BEGIN"))`},
		{"legacy_txn torn tail", crash, tornTail, `wal.bdb record 4 (SQL("BEGIN"))`},
		{"v2_image", gen, fixture("v2_image"), "snapshot.bdb: snapshot: version-2 image"},
		{"v1.snap", gen, image("v1.snap"), "snapshot.bdb: snapshot: version-1 image"},
		{"v2.snap", gen, image("v2.snap"), "snapshot.bdb: snapshot: version-2 image"},
		{"raw SQL DML", crash, func(t *testing.T) string { return legacyWAL(t, rawDML...) }, "wal.bdb record 2 (SQL(\"insert"},
		{"covered prefix", crash, covered, "wal.bdb record 2 (SQL(\"insert"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.dir(t)
			before := dirFiles(t, dir)
			_, err := OpenAt(dir, tc.rels)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), snapshot.UpgradeCommit) {
				t.Fatalf("OpenAt = %v, want a refusal naming %q and commit %s", err, tc.want, snapshot.UpgradeCommit)
			}
			after := dirFiles(t, dir)
			delete(after, "LOCK")
			for name, data := range before {
				if !bytes.Equal(after[name], data) {
					t.Errorf("the refused open changed %s", name)
				}
				delete(after, name)
			}
			for name := range after {
				t.Errorf("the refused open created %s", name)
			}
			if _, again := OpenAt(dir, tc.rels); again == nil || again.Error() != err.Error() {
				t.Errorf("second OpenAt = %v, want the first refusal again", again)
			}
		})
	}
}

// dirFiles reads every file of dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
