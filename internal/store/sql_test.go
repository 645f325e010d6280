package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"beliefdb/internal/core"
	"beliefdb/internal/wal"
)

// journal decodes the records of dir's WAL.
func journal(t *testing.T, dir string) []wal.Op {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _, err := wal.Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]wal.Op, len(payloads))
	for i, p := range payloads {
		if ops[i], err = wal.DecodeOp(p); err != nil {
			t.Fatal(err)
		}
	}
	return ops
}

// sqlInts runs a one-column integer query and returns its rows.
func sqlInts(t *testing.T, st *Store, q string) []int64 {
	t.Helper()
	res, err := st.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].AsInt()
	}
	return out
}

func TestSQLExecAndQuery(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE TABLE t (k INT PRIMARY KEY, v TEXT); INSERT INTO t VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	res, err := st.SQL("SELECT v FROM t WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := st.SQL(""); err == nil {
		t.Error("empty script accepted")
	}
	if _, err := st.SQL("SELEC x"); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestSQLReturnsLastResult(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if got := sqlInts(t, st, `
		CREATE TABLE t (k INT);
		INSERT INTO t VALUES (1), (2), (3);
		SELECT COUNT(*) FROM t`); !slices.Equal(got, []int64{3}) {
		t.Errorf("last result = %v, want [3]", got)
	}
}

// TestSQLMultiStatementDMLAtomic: a script of plain DML commits as one
// transaction — a failing statement rolls back the whole script — while a
// script holding DDL runs statement by statement.
func TestSQLMultiStatementDMLAtomic(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE TABLE t (k INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("INSERT INTO t VALUES (1); INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("duplicate key script should fail")
	}
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM t"); got[0] != 0 {
		t.Errorf("failed DML script left %d rows behind, want 0", got[0])
	}
	if _, err := st.SQL("INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); DELETE FROM t WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM t"); got[0] != 1 {
		t.Errorf("count = %d, want 1", got[0])
	}
	if _, err := st.SQL("CREATE TABLE u (k INT PRIMARY KEY); INSERT INTO u VALUES (1); INSERT INTO u VALUES (1)"); err == nil {
		t.Fatal("duplicate key should fail")
	}
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM u"); got[0] != 1 {
		t.Errorf("DDL script: u has %d rows, want 1 (statement by statement)", got[0])
	}
}

// TestSQLRefusesTransactionControl: BEGIN, COMMIT and ROLLBACK are refused
// by name wherever they appear in a script, and the script does nothing.
func TestSQLRefusesTransactionControl(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for script, kw := range map[string]string{
		"BEGIN":    "BEGIN",
		"COMMIT":   "COMMIT",
		"ROLLBACK": "ROLLBACK",
		"insert into Users values (50, 'ghost'); COMMIT":        "COMMIT",
		"BEGIN; insert into Users values (50, 'ghost'); COMMIT": "BEGIN",
	} {
		_, err := st.SQL(script)
		if err == nil || !strings.Contains(err.Error(), kw+" refused: a script is one transaction") {
			t.Errorf("SQL(%q) = %v, want %s refused", script, err, kw)
		}
	}
	if got := sqlInts(t, st, "select U.uid from Users U"); len(got) != 0 {
		t.Errorf("a refused script wrote users %v", got)
	}
}

// TestSQLReadersOverlapWriter: a reader runs while the writer holds the
// lock mid-commit, without waiting for it, and sees only the published
// epoch.
func TestSQLReadersOverlapWriter(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddUser("u1"); err != nil {
		t.Fatal(err)
	}
	err = st.BulkLoad(func(insert func(core.Statement) (bool, error)) error {
		if _, err := insert(crashStmt(nil, core.Pos, "S", "k1", "unpublished")); err != nil {
			return err
		}
		read := make(chan error, 1)
		go func() {
			res, err := st.SQL("SELECT COUNT(*) FROM S_v")
			if err == nil && res.Rows[0][0].AsInt() != 0 {
				err = fmt.Errorf("reader saw %v unpublished S_v rows", res.Rows[0][0])
			}
			read <- err
		}()
		select {
		case err := <-read:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("SQL read blocked behind the writer lock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM S_v"); got[0] == 0 {
		t.Error("the load's rows are not visible after it published")
	}
}

// TestSQLReadOnlyScriptsSkipWriterLock pins the statement routing: a script
// of SELECTs runs on the pinned view, so it completes while another
// goroutine holds the writer lock; a mutating script waits for it.
func TestSQLReadOnlyScriptsSkipWriterLock(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE TABLE t (k INT); INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	for _, q := range []string{
		"SELECT k FROM t",
		"select U.name from Users U",
		"SELECT COUNT(*) FROM t; SELECT k FROM t WHERE k = 7",
	} {
		res := make(chan error, 1)
		go func() {
			_, err := st.SQL(q)
			res <- err
		}()
		select {
		case err := <-res:
			if err != nil {
				t.Errorf("SQL(%q): %v", q, err)
			}
		case <-time.After(5 * time.Second):
			st.mu.Unlock()
			t.Fatalf("SQL(%q) blocked behind the writer lock", q)
		}
	}
	write := make(chan error, 1)
	go func() {
		_, err := st.SQL("INSERT INTO t VALUES (8)")
		write <- err
	}()
	select {
	case err := <-write:
		t.Errorf("a mutating script ran while the writer lock was held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	st.mu.Unlock()
	if err := <-write; err != nil {
		t.Fatal(err)
	}
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM t"); got[0] != 2 {
		t.Errorf("count = %d, want 2", got[0])
	}
}

// TestSQLReadersOverlap: a reader holding a pinned epoch blocks neither a
// raw write nor the next reader, and keeps seeing its own epoch after the
// write has published.
func TestSQLReadersOverlap(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE TABLE t (k INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	held := st.pin()
	if _, err := st.SQL("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM t"); got[0] != 2 {
		t.Errorf("a later reader sees %d rows, want 2", got[0])
	}
	if n := held.cat.Table("t").Len(); n != 0 {
		t.Errorf("the held epoch changed under its reader: %d rows, want 0", n)
	}
}

// TestSQLConcurrentQueries: many raw writers and readers at once all
// succeed, and every write lands.
func TestSQLConcurrentQueries(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE TABLE t (k INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := st.SQL(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
				t.Error(err)
			}
		}(i)
		go func() {
			defer wg.Done()
			if _, err := st.SQL("SELECT COUNT(*) FROM t"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := sqlInts(t, st, "SELECT COUNT(*) FROM t"); got[0] != 20 {
		t.Errorf("count = %d, want 20", got[0])
	}
}

// TestSQLDurable: on a durable store CREATE/DROP TABLE are refused — with
// the rest of their script, before it is journaled — while CREATE INDEX and
// DML are journaled and survive reopen.
func TestSQLDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		"create table notes (x int)",
		"drop table Users",
		"insert into Users values (5, 'ok'); create table sneaky (x int)",
	} {
		if _, err := st.SQL(ddl); err == nil {
			t.Errorf("durable SQL(%q) should be refused", ddl)
		}
	}
	for _, q := range []string{
		"create index S_star_species on S_star (species)",
		"insert into Users values (7, 'raw')",
	} {
		if _, err := st.SQL(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := sqlInts(t, re, "select U.uid from Users U"); !slices.Equal(got, []int64{7}) {
		t.Errorf("users after reopen = %v, want [7]", got)
	}
	if !findIndex(re, "S_star", "S_star_species").exists {
		t.Error("journaled CREATE INDEX lost across reopen")
	}
}

// TestAddUserSkipsRawSQLUids: a uid raw SQL already took is skipped before
// AddUser journals, so the call succeeds and the WAL holds no AddUser that
// fails on replay.
func TestAddUserSkipsRawSQLUids(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("insert into Users values (2, 'ghost')"); err != nil {
		t.Fatal(err)
	}
	if uid, err := st.AddUser("bob"); err != nil || uid != 3 {
		t.Fatalf("AddUser(bob) = %d, %v; want uid 3", uid, err)
	}
	if uid, err := st.AddUser("carol"); err != nil || uid != 4 {
		t.Fatalf("AddUser(carol) = %d, %v; want uid 4", uid, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var journaled []string
	for _, op := range journal(t, dir) {
		if op.Kind == wal.KindAddUser {
			journaled = append(journaled, op.Name)
		}
	}
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range journaled {
		if _, ok := re.UserID(name); !ok {
			t.Errorf("journaled AddUser(%s) failed on replay", name)
		}
	}
	if uid, _ := re.UserID("bob"); uid != 3 || len(journaled) != 3 {
		t.Errorf("after replay bob = %d with AddUser records %v; want uid 3 and 3 records", uid, journaled)
	}
}

// TestLegacyTxnWALReplay replays testdata/legacy_txn, written before raw
// SQL refused BEGIN/COMMIT/ROLLBACK: the committed spans apply, the
// rolled-back span and the span left open at close do not, and the store
// serves its users, takes beliefs and checkpoints afterwards.
func TestLegacyTxnWALReplay(t *testing.T) {
	dir := copyFixture(t, "legacy_txn")
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, label string, users []core.UserID, rawUids []int64, statements int) {
		t.Helper()
		if got := st.Users(); !slices.Equal(got, users) {
			t.Errorf("%s: Users() = %v, want %v", label, got, users)
		}
		if got := sqlInts(t, st, "select U.uid from Users U order by U.uid"); !slices.Equal(got, rawUids) {
			t.Errorf("%s: Users rows = %v, want %v", label, got, rawUids)
		}
		if got := st.Len(); got != statements {
			t.Errorf("%s: %d statements, want %d", label, got, statements)
		}
	}
	check(st, "reopened", []core.UserID{1}, []int64{1, 10, 11, 12, 13}, 2)

	if uid, err := st.AddUser("u2"); err != nil || uid != 2 {
		t.Fatalf("AddUser(u2) = %d, %v; want uid 2", uid, err)
	}
	stmt := crashStmt(core.Path{2}, core.Pos, "S", "k3", "after")
	if _, err := st.Insert(stmt); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Entails(stmt.Path, stmt.Tuple, core.Pos); err != nil || !ok {
		t.Fatalf("belief inserted after reopen not entailed (ok=%v, err=%v)", ok, err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "checkpointed", []core.UserID{1, 2}, []int64{1, 2, 10, 11, 12, 13}, 3)
}

// TestLegacyTxnWALWritesSurviveReopen: writes acknowledged after recovery
// rolled back testdata/legacy_txn's open span survive a reopen without an
// explicit Checkpoint — they must not replay inside that span — and the
// recovered WAL holds no transaction-control record for a replica to refuse.
func TestLegacyTxnWALWritesSurviveReopen(t *testing.T) {
	dir := copyFixture(t, "legacy_txn")
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range journal(t, dir) {
		if op.Kind == wal.KindSQL {
			t.Errorf("recovered WAL still holds raw SQL %q", op.SQL)
		}
	}
	stmt := crashStmt(core.Path{1}, core.Pos, "S", "k3", "after")
	if _, err := st.Insert(stmt); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("insert into Users values (40, 'raw')"); err != nil {
		t.Fatal(err)
	}
	if uid, err := st.AddUser("u2"); err != nil || uid != 2 {
		t.Fatalf("AddUser(u2) = %d, %v; want uid 2", uid, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		re, err := OpenAt(dir, crashRels())
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := re.Entails(stmt.Path, stmt.Tuple, core.Pos); err != nil || !ok {
			t.Errorf("reopen %d: belief written after recovery lost (ok=%v, err=%v)", i, ok, err)
		}
		if got := sqlInts(t, re, "select U.uid from Users U order by U.uid"); !slices.Equal(got, []int64{1, 2, 10, 11, 12, 13, 40}) {
			t.Errorf("reopen %d: Users rows = %v", i, got)
		}
		if got := re.Users(); !slices.Equal(got, []core.UserID{1, 2}) {
			t.Errorf("reopen %d: Users() = %v, want [1 2]", i, got)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyReplicatedRefusesTransactionControl: only a primary older than
// the refusal ships a transaction-control record; a replica refuses it with
// a structural error and applies nothing of it, and plain raw SQL still
// replicates.
func TestApplyReplicatedRefusesTransactionControl(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"BEGIN", "insert into Users values (8, 'x'); COMMIT"} {
		if err := st.ApplyReplicated(wal.SQL(text)); err == nil {
			t.Errorf("ApplyReplicated(SQL %q) succeeded", text)
		}
	}
	if err := st.ApplyReplicated(wal.SQL("insert into Users values (9, 'r')")); err != nil {
		t.Fatal(err)
	}
	if got := sqlInts(t, st, "select U.uid from Users U"); !slices.Equal(got, []int64{9}) {
		t.Errorf("replicated Users rows = %v, want [9]", got)
	}
}
