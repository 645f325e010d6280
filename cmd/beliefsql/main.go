// Command beliefsql is an interactive BeliefSQL shell over a belief
// database — embedded in-process, or remote through a beliefserver.
//
// Usage:
//
//	beliefsql [-demo] [-schema spec] [-db dir] [-connect addr] [script.bsql ...]
//
// The schema is declared with -schema using one or more
// "Rel(col:type,...)" items separated by ';' (the first column is the
// external key; types: int, float, text, bool). -demo preloads the paper's
// NatureMapping running example (users Alice/Bob/Carol, inserts i1..i8).
// With -db the database is durable: every mutation is journaled to
// dir/wal.bdb before it is applied, \checkpoint compacts the journal into
// dir/snapshot.bdb, and restarting beliefsql with the same -db recovers the
// previous session's committed state exactly. Script files are executed
// before the prompt; with no TTY-style interaction desired, pass scripts
// and pipe input.
//
// With -connect host:port the shell drives a running beliefserver instead
// of opening a database itself: the server owns the schema and the store,
// and -demo/-schema/-db do not apply. Statements, \batch (whose commits
// the server group-commits together with other clients' batches),
// \adduser, and \checkpoint work as in embedded mode; the meta commands
// that inspect in-process state (\world, \translate, \sql, \stats,
// \statements, \dump) need the embedded engine and report so.
//
// Meta commands at the prompt:
//
//	\adduser NAME      register a community member
//	\users             list users
//	\world PATH        show a belief world, e.g. \world Bob.Alice (empty = root)
//	\translate QUERY   show the SQL that a BeliefSQL SELECT compiles to
//	\sql STATEMENT     run plain SQL reads and CREATE [ORDERED] INDEX against
//	                   the internal schema
//	\stats             representation size (|R*|, n, N, overhead)
//	\statements        list explicit belief statements
//	\help, \quit
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"beliefdb"
	"beliefdb/client"
	"beliefdb/internal/paperex"
)

// session is the execution surface the shell drives: the embedded *beliefdb.DB
// satisfies it directly, and remoteSession adapts a beliefserver client.
type session interface {
	ExecScript(src string) (*beliefdb.Result, error)
	ExecBatch(script string) (beliefdb.BatchResult, error)
	AddUser(name string) (beliefdb.UserID, error)
	Checkpoint() error
	Close() error
}

// remoteSession drives a beliefserver over the client package. Idempotent
// requests (queries, pings, tokened batches) already reconnect and retry
// with backoff inside the client; a plain statement is not auto-retried,
// so a transport failure mid-statement leaves its fate unknown — the
// session re-establishes the connection and says so, instead of leaving
// the REPL wedged on a broken pipe.
type remoteSession struct{ cli *client.Client }

func (r remoteSession) ExecScript(src string) (*beliefdb.Result, error) {
	res, err := r.cli.Exec(context.Background(), src)
	if err == nil || errors.Is(err, client.ErrRemote) || errors.Is(err, client.ErrClosed) {
		return res, err
	}
	// Transport failure. Ping rides the client's backoff ladder onto a
	// fresh connection, so the next statement finds a working session.
	if perr := r.cli.Ping(context.Background()); perr != nil {
		return nil, fmt.Errorf("connection lost (%v) and the server is unreachable: %v", err, perr)
	}
	return nil, fmt.Errorf("connection lost mid-statement (%v); reconnected — the statement may or may not have applied, check before re-running", err)
}
func (r remoteSession) ExecBatch(script string) (beliefdb.BatchResult, error) {
	return r.cli.ExecBatch(context.Background(), script)
}
func (r remoteSession) AddUser(name string) (beliefdb.UserID, error) {
	return r.cli.AddUser(context.Background(), name)
}
func (r remoteSession) Checkpoint() error { return r.cli.Checkpoint(context.Background()) }
func (r remoteSession) Close() error      { return r.cli.Close() }

func main() {
	var (
		demo    = flag.Bool("demo", false, "preload the paper's running example")
		schema  = flag.String("schema", "", "schema spec: Rel(col:type,...);...")
		dbdir   = flag.String("db", "", "durable database directory (WAL + snapshot; created on first use, recovered on reopen)")
		connect = flag.String("connect", "", "drive a running beliefserver at host:port instead of opening a database")
	)
	flag.Parse()

	sess, db, err := openSession(*connect, *demo, *schema, *dbdir)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	for _, file := range flag.Args() {
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		if res, err := sess.ExecScript(string(data)); err != nil {
			fatal(fmt.Errorf("%s: %w", file, err))
		} else {
			printResult(res)
		}
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("beliefdb shell — BeliefSQL statements end with ';', meta commands start with '\\' (\\help)")
	sh := &shell{sess: sess, db: db}
	prompt := func() {
		switch {
		case sh.buf.Len() > 0:
			fmt.Print("      ...> ")
		case sh.inBatch:
			fmt.Printf("  batch:%d> ", len(sh.batch))
		default:
			fmt.Print("beliefsql> ")
		}
	}
	prompt()
	for in.Scan() {
		if !sh.handleLine(in.Text()) {
			return
		}
		prompt()
	}
	sh.flush()
}

// shell is the interactive loop's state: the statement continuation buffer
// and, when \batch is active, the queued statements awaiting an atomic
// commit. db is nil in -connect mode; the meta commands that need the
// embedded engine check it.
type shell struct {
	sess    session
	db      *beliefdb.DB
	buf     strings.Builder
	inBatch bool
	batch   []string
}

// handleLine consumes one input line; it returns false to quit.
func (sh *shell) handleLine(line string) bool {
	trimmed := strings.TrimSpace(line)
	if sh.buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
		return meta(sh, trimmed)
	}
	sh.buf.WriteString(line)
	sh.buf.WriteByte('\n')
	if strings.HasSuffix(trimmed, ";") {
		stmt := sh.buf.String()
		sh.buf.Reset()
		if sh.inBatch {
			sh.batch = append(sh.batch, stmt)
			fmt.Printf("queued (%d statement(s) in batch; \\batch commit to apply)\n", len(sh.batch))
		} else {
			run(sh.sess, stmt)
		}
	}
	return true
}

// flush handles end of input: a trailing unterminated statement runs (or
// joins the open batch), and an open batch is discarded like a transaction
// at disconnect — loudly, never partially applied.
func (sh *shell) flush() {
	if sh.buf.Len() > 0 {
		if sh.inBatch {
			sh.batch = append(sh.batch, sh.buf.String())
		} else {
			run(sh.sess, sh.buf.String())
		}
		sh.buf.Reset()
	}
	if sh.inBatch {
		fmt.Printf("warning: input ended with an open batch; %d queued statement(s) discarded (use \\batch commit)\n", len(sh.batch))
		sh.inBatch, sh.batch = false, nil
	}
}

// batchCmd implements \batch [begin|commit|abort|status]: statements typed
// while a batch is open are queued and applied atomically — one writer-lock
// acquisition, one WAL fsync, all-or-nothing — by \batch commit.
func (sh *shell) batchCmd(arg string) {
	switch arg {
	case "", "begin":
		if sh.inBatch {
			fmt.Printf("a batch with %d statement(s) is already open (\\batch commit or \\batch abort)\n", len(sh.batch))
			return
		}
		sh.inBatch = true
		sh.batch = nil
		fmt.Println("batch open: INSERT/DELETE statements are queued until \\batch commit")
	case "status":
		if !sh.inBatch {
			fmt.Println("no batch open (\\batch begin)")
			return
		}
		fmt.Printf("batch open with %d statement(s)\n", len(sh.batch))
	case "abort":
		if !sh.inBatch {
			fmt.Println("no batch open")
			return
		}
		fmt.Printf("batch aborted (%d statement(s) discarded)\n", len(sh.batch))
		sh.inBatch, sh.batch = false, nil
	case "commit":
		if !sh.inBatch {
			fmt.Println("no batch open")
			return
		}
		script := strings.Join(sh.batch, "")
		sh.inBatch, sh.batch = false, nil
		if strings.TrimSpace(script) == "" {
			fmt.Println("empty batch; nothing to do")
			return
		}
		res, err := sh.sess.ExecBatch(script)
		if err != nil {
			fmt.Println("error (batch rolled back):", err)
			return
		}
		fmt.Printf("batch committed: %d statement(s) applied, %d changed state\n", res.Applied, res.Changed)
	default:
		fmt.Println("usage: \\batch [begin|commit|abort|status]")
	}
}

// openSession opens the shell's execution surface: a remote session when
// -connect is set (the other database flags then do not apply), otherwise
// an embedded database, returned both as the session and as the *DB the
// engine-inspection meta commands need.
func openSession(connect string, demo bool, schemaSpec, dbdir string) (session, *beliefdb.DB, error) {
	if connect == "" {
		db, err := openDB(demo, schemaSpec, dbdir)
		if err != nil {
			return nil, nil, err
		}
		return db, db, nil
	}
	if demo || schemaSpec != "" || dbdir != "" {
		return nil, nil, fmt.Errorf("-connect drives a server-owned database; -demo, -schema and -db do not apply")
	}
	// An interactive shell favors persistence over fast failure: ride out
	// server restarts with a patient backoff ladder rather than bailing on
	// the first broken pipe.
	cli, err := client.Dial(connect, client.Options{
		MaxRetries:      6,
		RetryBackoff:    100 * time.Millisecond,
		RetryMaxBackoff: 3 * time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("connected to beliefserver at %s\n", connect)
	return remoteSession{cli}, nil, nil
}

func openDB(demo bool, schemaSpec, dbdir string) (*beliefdb.DB, error) {
	open := func(sch beliefdb.Schema) (*beliefdb.DB, error) {
		if dbdir == "" {
			return beliefdb.Open(sch)
		}
		db, err := beliefdb.OpenAt(dbdir, sch)
		if err != nil {
			return nil, err
		}
		if s := db.Stats(); s.Annotations > 0 || s.Users > 0 {
			fmt.Printf("recovered %s: %d users, %d statements\n", dbdir, s.Users, s.Annotations)
		}
		return db, nil
	}
	if demo || schemaSpec == "" {
		db, err := open(natureSchema())
		if err != nil {
			return nil, err
		}
		// The recovered-directory rules (idempotent user registration,
		// never resurrect durably deleted demo statements) live in
		// paperex, shared with beliefserver -demo.
		if err := paperex.EnsureUsers(db); err != nil {
			return nil, err
		}
		switch {
		case !demo:
			fmt.Println("using NatureMapping demo schema: Sightings(sid,uid,species,date,location), Comments(cid,comment,sid)")
		default:
			loaded, err := paperex.PreloadStatements(db)
			if err != nil {
				return nil, err
			}
			if loaded {
				fmt.Println("loaded running example: users Alice, Bob, Carol; statements i1..i8")
			} else {
				fmt.Println("database already contains statements; skipping -demo preload")
			}
		}
		return db, nil
	}
	sch, err := beliefdb.ParseSchemaSpec(schemaSpec)
	if err != nil {
		return nil, err
	}
	return open(sch)
}

func natureSchema() beliefdb.Schema {
	return beliefdb.Schema{Relations: paperex.Relations()}
}

func run(sess session, src string) {
	res, err := sess.ExecScript(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(res)
}

func printResult(res *beliefdb.Result) {
	if res == nil {
		return
	}
	if len(res.Columns) == 0 {
		fmt.Printf("ok (%d statement(s) affected)\n", res.Affected)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d row(s))\n", len(res.Rows))
}

// meta executes a backslash command; it returns false to quit.
func meta(sh *shell, line string) bool {
	db := sh.db
	cmd, arg, _ := strings.Cut(strings.TrimPrefix(line, "\\"), " ")
	arg = strings.TrimSpace(arg)
	// The engine-inspection commands read in-process state that a remote
	// session does not hold.
	needsDB := map[string]bool{
		"users": true, "world": true, "translate": true, "sql": true,
		"stats": true, "statements": true, "dump": true,
	}
	if db == nil && needsDB[cmd] {
		fmt.Printf("\\%s inspects the embedded engine and is unavailable over -connect "+
			"(statements, \\batch, \\adduser and \\checkpoint run remotely)\n", cmd)
		return true
	}
	switch cmd {
	case "q", "quit", "exit":
		return false
	case "batch":
		sh.batchCmd(arg)
	case "help":
		fmt.Println(`meta commands:
  \adduser NAME    register a user
  \users           list users
  \world PATH      show a belief world (PATH like Bob.Alice; empty = root)
  \translate Q     show the SQL a BeliefSQL SELECT compiles to
  \explain Q       show the access path the planner picks for a SELECT
  \sql STMT        run plain SQL reads and CREATE [ORDERED] INDEX on the
                   internal schema
  \stats           representation size
  \statements      list explicit belief statements
  \dump            emit a replayable BeliefSQL script
  \checkpoint      snapshot a durable database and truncate its WAL
  \batch           queue INSERT/DELETE statements; \batch commit applies
                   them atomically under one WAL fsync (group commit);
                   over -connect the server group-commits the batch
                   together with other clients' batches
  \quit
(over -connect, the engine-inspection commands are unavailable)`)
	case "adduser":
		if arg == "" {
			fmt.Println("usage: \\adduser NAME")
			break
		}
		uid, err := sh.sess.AddUser(arg)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("user %q registered with uid %d\n", arg, uid)
	case "users":
		for _, uid := range db.Users() {
			name, _ := db.UserName(uid)
			fmt.Printf("%4d  %s\n", uid, name)
		}
	case "world":
		path, err := parsePath(db, arg)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		entries, err := db.World(path)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, e := range entries {
			flag := "implicit"
			if e.Explicit {
				flag = "explicit"
			}
			fmt.Printf("  %s%s  (%s)\n", e.Tuple, e.Sign, flag)
		}
		fmt.Printf("(%d beliefs)\n", len(entries))
	case "translate":
		sql, err := db.Translate(arg)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(sql)
	case "explain":
		if arg == "" {
			fmt.Println("usage: \\explain SELECT ...")
			break
		}
		run(sh.sess, "EXPLAIN "+arg)
	case "sql":
		res, err := db.SQL(arg)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		printResult(res)
	case "dump":
		script, err := db.Dump()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(script)
	case "checkpoint":
		if err := sh.sess.Checkpoint(); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("checkpoint written")
	case "stats":
		fmt.Print(db.Stats())
	case "statements":
		stmts, err := db.Statements()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, st := range stmts {
			fmt.Println(" ", st)
		}
		fmt.Printf("(%d statements)\n", len(stmts))
	default:
		fmt.Printf("unknown meta command \\%s (try \\help)\n", cmd)
	}
	return true
}

// parsePath turns "Bob.Alice" (names) or "2.1" (uids) into a Path.
func parsePath(db *beliefdb.DB, s string) (beliefdb.Path, error) {
	if strings.TrimSpace(s) == "" {
		return beliefdb.Path{}, nil
	}
	var p beliefdb.Path
	for _, part := range strings.Split(s, ".") {
		part = strings.TrimSpace(part)
		if uid, ok := db.UserID(part); ok {
			p = append(p, uid)
			continue
		}
		var uid int64
		if _, err := fmt.Sscanf(part, "%d", &uid); err != nil {
			return nil, fmt.Errorf("unknown user %q", part)
		}
		p = append(p, beliefdb.UserID(uid))
	}
	return p, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beliefsql:", err)
	os.Exit(1)
}
