package main

import (
	"context"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"beliefdb"
	"beliefdb/internal/server"
)

// TestRemoteSession drives the -connect plumbing against an in-process
// beliefserver: statements, batches, \adduser and \checkpoint go over the
// wire, and the embedded-only meta commands are refused gracefully.
func TestRemoteSession(t *testing.T) {
	db, err := beliefdb.OpenAt(t.TempDir(), natureSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	sess, shellDB, err := openSession(ln.Addr().String(), false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if shellDB != nil {
		t.Fatal("remote session returned an embedded DB")
	}

	if _, err := sess.AddUser("Remote"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecScript("insert into Sightings values ('s1','Remote','owl','d','l')"); err != nil {
		t.Fatal(err)
	}
	br, err := sess.ExecBatch("insert into BELIEF 'Remote' not Sightings values ('s1','Remote','owl','d','l');")
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied != 1 {
		t.Fatalf("batch result = %+v", br)
	}
	res, err := sess.ExecScript("select S.species from Sightings S")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "owl" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if err := sess.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The shell refuses engine-inspection meta commands without a DB but
	// keeps running.
	sh := &shell{sess: sess, db: nil}
	for _, cmd := range []string{"\\stats", "\\world", "\\sql select 1", "\\dump"} {
		if !sh.handleLine(cmd) {
			t.Fatalf("%s quit the shell", cmd)
		}
	}
	// Remote \adduser works through the shell path too.
	if !sh.handleLine("\\adduser ShellUser") {
		t.Fatal("\\adduser quit the shell")
	}
	if _, ok := db.UserID("ShellUser"); !ok {
		t.Error("\\adduser did not reach the server")
	}
}

// TestOpenSessionFlagValidation: -connect excludes the embedded-database
// flags and reports unreachable servers.
func TestOpenSessionFlagValidation(t *testing.T) {
	if _, _, err := openSession("127.0.0.1:1", true, "", ""); err == nil ||
		!strings.Contains(err.Error(), "do not apply") {
		t.Errorf("-connect with -demo: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, _, err := openSession(dead, false, "", ""); err == nil {
		t.Error("openSession to a dead address succeeded")
	}
}

func TestParsePath(t *testing.T) {
	db, err := openDB(false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parsePath(db, "Bob.Alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("p = %v", p)
	}
	if name, _ := db.UserName(p[0]); name != "Bob" {
		t.Errorf("p[0] = %v", p[0])
	}
	// Numeric uids work too.
	p, err = parsePath(db, "2.1")
	if err != nil || len(p) != 2 || p[0] != 2 {
		t.Errorf("numeric path: %v %v", p, err)
	}
	// Empty = root.
	p, err = parsePath(db, "  ")
	if err != nil || len(p) != 0 {
		t.Errorf("empty path: %v %v", p, err)
	}
	if _, err := parsePath(db, "Nobody"); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestOpenDBDemo(t *testing.T) {
	db, err := openDB(true, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Annotations; got != 8 {
		t.Errorf("demo annotations = %d", got)
	}
	res, err := db.Query(`select S.species from BELIEF 'Bob' Sightings S`)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("demo query: %v %v", res, err)
	}
}

func TestMetaCommands(t *testing.T) {
	db, err := openDB(true, "", "")
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{sess: db, db: db}
	for _, cmd := range []string{
		"\\help", "\\users", "\\stats", "\\statements", "\\dump",
		"\\world Bob.Alice", "\\world", "\\adduser Dora",
		"\\translate select S.sid from BELIEF 'Bob' Sightings S",
		"\\sql SELECT COUNT(*) FROM _e",
		"\\world Nobody", "\\unknowncmd",
	} {
		if !meta(sh, cmd) {
			t.Errorf("meta(%q) requested quit", cmd)
		}
	}
	if meta(sh, "\\quit") {
		t.Error("\\quit did not quit")
	}
}

// TestShellSQLRefusesTransactions: \sql BEGIN prints the refusal — a raw
// SQL script is one transaction — and the shell keeps going.
func TestShellSQLRefusesTransactions(t *testing.T) {
	db, err := openDB(true, "", "")
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{sess: db, db: db}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	kept := sh.handleLine(`\sql BEGIN`)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !kept {
		t.Error("\\sql BEGIN quit the shell")
	}
	if want := "error: store: BEGIN refused: a script is one transaction"; !strings.Contains(string(out), want) {
		t.Errorf("\\sql BEGIN printed %q, want %q", out, want)
	}
}

func TestOpenDBDurableSession(t *testing.T) {
	dir := t.TempDir()
	db, err := openDB(true, "", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("-db session should be durable")
	}
	if _, err := db.Exec(`insert into Comments values ('c9','session note','s1')`); err != nil {
		t.Fatal(err)
	}
	stmts, err := db.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A second session over the same directory (demo reloads are no-ops on
	// the recovered state) sees the same statements.
	db2, err := openDB(true, "", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	stmts2, err := db2.Statements()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts2) != len(stmts) {
		t.Fatalf("recovered session has %d statements, want %d", len(stmts2), len(stmts))
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestShellBatchMode drives \batch through the shell loop: statements
// queue while a batch is open, commit applies them atomically, abort
// discards them, and a conflicting batch rolls back whole.
func TestShellBatchMode(t *testing.T) {
	db, err := openDB(false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{sess: db, db: db}
	feed := func(lines ...string) {
		t.Helper()
		for _, l := range lines {
			if !sh.handleLine(l) {
				t.Fatalf("line %q quit the shell", l)
			}
		}
	}
	if _, err := db.AddUser("Ann"); err != nil {
		t.Fatal(err)
	}

	feed(`\batch`,
		`insert into Sightings values ('b1','Ann','crow','d','loc');`,
		`insert into BELIEF 'Ann' Sightings`,
		`  values ('b2','Ann','jay','d','loc');`)
	if len(sh.batch) != 2 {
		t.Fatalf("queued %d statements, want 2", len(sh.batch))
	}
	if n := db.Stats().Annotations; n != 0 {
		t.Fatalf("queued statements touched the database: n=%d", n)
	}
	feed(`\batch commit`)
	if sh.inBatch {
		t.Error("commit left the batch open")
	}
	if n := db.Stats().Annotations; n != 2 {
		t.Errorf("n = %d after commit, want 2", n)
	}

	// Abort discards.
	feed(`\batch begin`, `insert into Sightings values ('b3','x','y','d','loc');`, `\batch abort`)
	if n := db.Stats().Annotations; n != 2 {
		t.Errorf("aborted batch applied: n = %d", n)
	}

	// A conflicting batch rolls back whole.
	before := db.Stats().Annotations
	feed(`\batch`,
		`insert into Sightings values ('b4','x','kite','d','loc');`,
		`insert into not Sightings values ('b4','x','kite','d','loc');`,
		`\batch commit`)
	if n := db.Stats().Annotations; n != before {
		t.Errorf("conflicting batch applied a prefix: n = %d, want %d", n, before)
	}
	// Status/double-begin paths don't blow up.
	feed(`\batch status`, `\batch begin`, `\batch begin`, `\batch status`, `\batch abort`, `\batch nonsense`)
}

// TestShellBatchDiscardedAtEOF: input ending with an open batch must not
// apply anything — the queued statements (including a trailing
// unterminated one) are discarded like a transaction at disconnect.
func TestShellBatchDiscardedAtEOF(t *testing.T) {
	db, err := openDB(false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{sess: db, db: db}
	for _, l := range []string{
		`\batch`,
		`insert into Sightings values ('e1','x','crow','d','loc');`,
		`insert into Sightings values ('e2','x','jay','d','loc')`, // no ';'
	} {
		if !sh.handleLine(l) {
			t.Fatalf("line %q quit the shell", l)
		}
	}
	sh.flush()
	if sh.inBatch || len(sh.batch) != 0 {
		t.Errorf("flush left batch state: inBatch=%v queued=%d", sh.inBatch, len(sh.batch))
	}
	if n := db.Stats().Annotations; n != 0 {
		t.Errorf("EOF applied %d statements from an uncommitted batch, want 0", n)
	}
}
