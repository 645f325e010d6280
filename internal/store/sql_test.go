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
	"beliefdb/internal/snapshot"
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

// legacyWAL writes a directory whose WAL holds the crashRels schema record
// followed by ops, as a binary older than snapshot.UpgradeCommit could
// leave it.
func legacyWAL(t *testing.T, ops ...wal.Op) string {
	t.Helper()
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	data := wal.AppendHeader(nil, 0)
	for _, op := range append([]wal.Op{wal.Schema(st.schemaDef())}, ops...) {
		data = wal.AppendRecord(data, op.Encode(nil))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// legacyRefusal reports whether err refuses a legacy record and names the
// commit that upgrades it.
func legacyRefusal(err error) bool {
	return err != nil && strings.Contains(err.Error(), "is a legacy record this version does not replay") &&
		strings.Contains(err.Error(), snapshot.UpgradeCommit)
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

// refusal is the error SQL returns for a script whose first forbidden
// statement is kw.
func refusal(kw string) string {
	return "store: raw SQL only reads and creates indexes: " + kw + " refused"
}

func TestSQLExecAndQuery(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddUser("u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SQL("CREATE INDEX Users_uid_name ON Users (uid, name)"); err != nil {
		t.Fatal(err)
	}
	res, err := st.SQL("SELECT U.name FROM Users U WHERE U.uid = 1 AND U.name = 'u1'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "u1" {
		t.Errorf("rows = %v", res.Rows)
	}
	if !findIndex(st, "Users", "Users_uid_name").exists {
		t.Error("CREATE INDEX did not create the index")
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
	for _, name := range []string{"u1", "u2", "u3"} {
		if _, err := st.AddUser(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, script := range []string{
		"SELECT COUNT(*) FROM _d; SELECT COUNT(*) FROM Users",
		"CREATE INDEX Users_n ON Users (name); SELECT COUNT(*) FROM Users",
	} {
		if got := sqlInts(t, st, script); !slices.Equal(got, []int64{3}) {
			t.Errorf("%q: last result = %v, want [3]", script, got)
		}
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
		"CREATE INDEX Users_n ON Users (name); COMMIT":          "COMMIT",
		"BEGIN; insert into Users values (50, 'ghost'); COMMIT": "BEGIN",
	} {
		_, err := st.SQL(script)
		if err == nil || !strings.Contains(err.Error(), refusal(kw)) {
			t.Errorf("SQL(%q) = %v, want %s refused", script, err, kw)
		}
	}
	if got := sqlInts(t, st, "select U.uid from Users U"); len(got) != 0 {
		t.Errorf("a refused script wrote users %v", got)
	}
	if findIndex(st, "Users", "Users_n").exists {
		t.Error("a refused script created its index")
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
// goroutine holds the writer lock; an index-creating script waits for it.
func TestSQLReadOnlyScriptsSkipWriterLock(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddUser("u1"); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	for _, q := range []string{
		"SELECT D.wid FROM _d D",
		"select U.name from Users U",
		"SELECT COUNT(*) FROM _e; SELECT U.uid FROM Users U WHERE U.uid = 1",
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
		_, err := st.SQL("SELECT COUNT(*) FROM Users; CREATE INDEX Users_n ON Users (name)")
		write <- err
	}()
	select {
	case err := <-write:
		t.Errorf("an index-creating script ran while the writer lock was held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	st.mu.Unlock()
	if err := <-write; err != nil {
		t.Fatal(err)
	}
	if !findIndex(st, "Users", "Users_n").exists {
		t.Error("the index-creating script did not create its index")
	}
}

// TestSQLReadersOverlap: a reader holding a pinned epoch blocks neither an
// index-creating script nor the next reader, and keeps seeing its own
// epoch after the script has published.
func TestSQLReadersOverlap(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	held := st.pin()
	if _, err := st.SQL("CREATE ORDERED INDEX S_v_e ON S_v (e)"); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.pin().cat.Table("S_v").Indexes()["S_v_e"]; !ok {
		t.Error("a later reader does not see the new index")
	}
	if _, ok := held.cat.Table("S_v").Indexes()["S_v_e"]; ok {
		t.Error("the held epoch changed under its reader: it sees the new index")
	}
}

// TestSQLConcurrentQueries: many index-creating scripts and readers at once
// all succeed, and every index lands.
func TestSQLConcurrentQueries(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := st.SQL(fmt.Sprintf("CREATE INDEX ix%d ON S_v (e)", i)); err != nil {
				t.Error(err)
			}
		}(i)
		go func() {
			defer wg.Done()
			if _, err := st.SQL("SELECT COUNT(*) FROM S_v"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 20; i++ {
		if !findIndex(st, "S_v", fmt.Sprintf("ix%d", i)).exists {
			t.Errorf("index ix%d missing", i)
		}
	}
}

// TestSQLDurable: a durable store follows the one rule too — a refused
// script journals nothing, while CREATE INDEX is journaled and survives
// reopen.
func TestSQLDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAt(dir, crashRels())
	if err != nil {
		t.Fatal(err)
	}
	for script, kw := range map[string]string{
		"create table notes (x int)": "CREATE TABLE",
		"drop table Users":           "DROP TABLE",
		"create index S_star_species on S_star (species); insert into Users values (5, 'ok')": "INSERT",
	} {
		if _, err := st.SQL(script); err == nil || !strings.Contains(err.Error(), refusal(kw)) {
			t.Errorf("durable SQL(%q) = %v, want %s refused", script, err, kw)
		}
	}
	if st.walCount != 1 {
		t.Errorf("refused scripts journaled: %d records, want the schema record alone", st.walCount)
	}
	if _, err := st.SQL("create index S_star_species on S_star (species)"); err != nil {
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
	if got := sqlInts(t, re, "select U.uid from Users U"); len(got) != 0 {
		t.Errorf("users after reopen = %v, want none", got)
	}
	if !findIndex(re, "S_star", "S_star_species").exists {
		t.Error("journaled CREATE INDEX lost across reopen")
	}
}

// TestApplyReplicatedRefusesLegacyRecords: only a primary whose log an
// earlier version wrote ships a legacy record — raw-SQL DML, transaction
// control, a bare statement record. A replica refuses each with a
// structural error naming the upgrade commit and applies nothing of it,
// and index DDL still replicates.
func TestApplyReplicatedRefusesLegacyRecords(t *testing.T) {
	st, err := Open(crashRels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddUser("u1"); err != nil {
		t.Fatal(err)
	}
	stmt := crashStmt(nil, core.Pos, "S", "k1", "x")
	for _, op := range []wal.Op{
		wal.SQL("insert into Users values (8, 'x')"),
		wal.SQL("BEGIN"),
		wal.SQL("create index Users_n on Users (name); COMMIT"),
		wal.Insert(stmt),
		wal.Delete(stmt),
		wal.Replace(stmt, stmt.Tuple.Vals),
	} {
		if err := st.ApplyReplicated(op); !legacyRefusal(err) {
			t.Errorf("ApplyReplicated(%s) = %v, want a refusal naming the upgrade commit", op, err)
		}
	}
	if got := sqlInts(t, st, "select U.uid from Users U"); !slices.Equal(got, []int64{1}) {
		t.Errorf("replicated Users rows = %v, want [1]", got)
	}
	if st.Len() != 0 || findIndex(st, "Users", "Users_n").exists {
		t.Errorf("a refused record applied: %d statements, index %v", st.Len(), findIndex(st, "Users", "Users_n"))
	}
	if err := st.ApplyReplicated(wal.SQL("create index Users_n on Users (name)")); err != nil {
		t.Fatal(err)
	}
	if !findIndex(st, "Users", "Users_n").exists {
		t.Error("replicated index DDL did not create the index")
	}
}
