// Package beliefdb is an embedded belief database management system (BDMS):
// a relational database whose tuples — and other users' beliefs about them —
// can be annotated with higher-order positive and negative belief
// statements, as introduced in "Believe It or Not: Adding Belief Annotations
// to Databases" (Gatterbauer, Balazinska, Khoussainova, Suciu; PVLDB 2009).
//
// A DB hosts an external schema of belief relations plus a Users table.
// Content is manipulated in BeliefSQL, plain SQL extended with `BELIEF user`
// and `not` prefixes on relation names:
//
//	insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')
//	select S.species from Users U, BELIEF U.uid Sightings S where U.name = 'Bob'
//
// Internally the system maintains the paper's canonical Kripke structure in
// relational form and translates queries into plain SQL over it
// (Algorithm 1); the typed helpers (InsertBelief, Believes, World) bypass
// the parser but use the same machinery.
//
// # Concurrency
//
// A DB is safe for concurrent use under a single-writer / snapshot-reader
// (MVCC) model, matching the paper's read-dominated community-database
// workload: read methods (Query on SELECTs, Believes, Disbelieves, World,
// Stats, Statements, user lookups) pin the most recently published
// immutable snapshot and run lock-free against it, while mutating methods
// (InsertBelief, DeleteBelief, Exec on DML, AddUser, Rebuild, Vacuum)
// serialize under an exclusive lock and publish a new snapshot on
// completion. Readers only ever observe fully-applied belief statements,
// never a torn intermediate state, and a long-running read never delays a
// commit. See the Concurrency section of DESIGN.md for the snapshot
// architecture.
//
// # Durability
//
// Open keeps the database in memory. OpenAt persists it under a directory:
// every mutation is appended to a CRC-checksummed write-ahead log and
// fsynced before it is acknowledged,
// Checkpoint compacts the log into an atomically-replaced snapshot, and
// reopening the directory recovers the exact committed state — loading the
// snapshot, replaying the WAL tail, and truncating at the first torn
// record. Close ends a durable session; afterwards mutations fail while
// reads keep serving the in-memory state. See the Durability section of
// DESIGN.md for the formats and the recovery algorithm.
package beliefdb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"beliefdb/internal/bsql"
	"beliefdb/internal/core"
	"beliefdb/internal/query"
	"beliefdb/internal/shard"
	"beliefdb/internal/store"
	"beliefdb/internal/val"
)

// Value is a dynamically typed scalar (NULL, INT, FLOAT, TEXT, BOOL).
type Value = val.Value

// Convenience constructors for Value.
var (
	Int   = val.Int
	Float = val.Float
	Str   = val.Str
	Bool  = val.Bool
	Null  = val.Null
)

// Kind enumerates value types for schema declarations.
type Kind = val.Kind

// The supported column types.
const (
	KindInt    = val.KindInt
	KindFloat  = val.KindFloat
	KindString = val.KindString
	KindBool   = val.KindBool
)

// UserID identifies a registered user.
type UserID = core.UserID

// Sign marks a belief as positive or negative.
type Sign = core.Sign

// The two belief signs.
const (
	Pos = core.Pos
	Neg = core.Neg
)

// Path is a belief path: Path{2, 1} means "user 2 believes that user 1
// believes". The empty path addresses the plain database content.
type Path = core.Path

// Tuple is a ground tuple of an external relation; Vals[0] is the external
// key.
type Tuple = core.Tuple

// Statement is one belief annotation.
type Statement = core.Statement

// Column declares one attribute of an external relation.
type Column = store.Column

// Relation declares one belief-annotated relation; the first column is the
// external key.
type Relation = store.Relation

// Schema is the external schema of a belief database.
type Schema struct {
	Relations []Relation
}

// ParseSchemaSpec parses the compact schema notation the command-line
// tools (beliefsql, beliefserver) share: one or more "Rel(col:type,...)"
// items separated by ';', where the first column is the external key and
// the types are int, float, text (the default), and bool.
//
//	Sightings(sid,uid,species,date,location); Ratings(rid, stars:int)
func ParseSchemaSpec(spec string) (Schema, error) {
	var sch Schema
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		open := strings.Index(item, "(")
		if open < 0 || !strings.HasSuffix(item, ")") {
			return sch, fmt.Errorf("beliefdb: bad relation spec %q", item)
		}
		rel := Relation{Name: strings.TrimSpace(item[:open])}
		for _, col := range strings.Split(item[open+1:len(item)-1], ",") {
			parts := strings.SplitN(strings.TrimSpace(col), ":", 2)
			c := Column{Name: parts[0], Type: KindString}
			if len(parts) == 2 {
				switch strings.ToLower(strings.TrimSpace(parts[1])) {
				case "int":
					c.Type = KindInt
				case "float":
					c.Type = KindFloat
				case "text", "string":
					c.Type = KindString
				case "bool":
					c.Type = KindBool
				default:
					return sch, fmt.Errorf("beliefdb: bad column type %q", parts[1])
				}
			}
			rel.Columns = append(rel.Columns, c)
		}
		sch.Relations = append(sch.Relations, rel)
	}
	if len(sch.Relations) == 0 {
		return sch, fmt.Errorf("beliefdb: empty schema spec")
	}
	return sch, nil
}

// Sentinel errors callers can classify with errors.Is.
var (
	// ErrDegraded marks mutations rejected while the database is in its
	// sticky read-only state after a WAL append or fsync failure; reads
	// keep working. beliefserver forwards the condition to clients as the
	// wire protocol's degraded error code.
	ErrDegraded = store.ErrDegraded
	// ErrClosed marks mutations attempted after Close.
	ErrClosed = store.ErrClosed
	// ErrParse marks BeliefSQL syntax errors (Exec, Query, ExecBatch,
	// ParseBatch): the statement can never succeed, so retrying is useless.
	ErrParse = bsql.ErrParse
)

// Result is a query result: column names, rows, and the number of affected
// statements for DML.
type Result = query.Result

// Stats reports the size of the relational representation (|R*|, n, N, m).
type Stats = store.Stats

// BeliefEntry is one signed tuple of a belief world, with its provenance.
type BeliefEntry struct {
	Tuple    Tuple
	Sign     Sign
	Explicit bool // explicitly asserted vs. inherited by default
}

// DB is an embedded belief database. It is safe for concurrent use: reads
// proceed in parallel, writes are exclusive (see the package comment).
type DB struct {
	st *store.Store
	tr *bsql.Translator

	// The shared group-commit coalescer behind SubmitBatch, created on
	// first use; beliefserver funnels every client's batch through it.
	coalOnce sync.Once
	coal     *store.Coalescer
}

// Open creates a belief database with the given external schema, every
// implicit belief materialized as in the paper's prototype.
func Open(schema Schema) (*DB, error) {
	st, err := store.Open(schema.Relations)
	if err != nil {
		return nil, err
	}
	return &DB{st: st, tr: bsql.NewTranslator(st)}, nil
}

// OpenAt opens — creating it on first use — a durable belief database
// rooted at directory dir. Every mutating operation
// (InsertBelief/DeleteBelief, DML via BeliefSQL, AddUser,
// Rebuild, Vacuum, and raw-SQL writes through SQL) is appended to a
// write-ahead log and fsynced before it is acknowledged; Checkpoint
// compacts the log into a snapshot. Reopening the directory recovers the
// exact committed state: the latest snapshot is loaded and the WAL tail
// replayed, truncating at the first torn record (see the Durability
// section of DESIGN.md). The schema must match the one the directory was
// created with. A directory is exclusive to one open handle at a time,
// enforced by an advisory lock (dir/LOCK) that dies with the process.
func OpenAt(dir string, schema Schema) (*DB, error) {
	st, err := store.OpenAt(dir, schema.Relations)
	if err != nil {
		return nil, err
	}
	return &DB{st: st, tr: bsql.NewTranslator(st)}, nil
}

// Durable reports whether the database persists to disk (opened with
// OpenAt).
func (db *DB) Durable() bool { return db.st.Durable() }

// Degraded reports whether the database is in the sticky read-only state
// entered after a WAL failure: reads keep serving, mutations fail with an
// error matching ErrDegraded.
func (db *DB) Degraded() bool { return db.st.Degraded() }

// Checkpoint writes a snapshot of the internal representation and
// truncates the write-ahead log, bounding recovery time. It is an error on
// an in-memory database.
func (db *DB) Checkpoint() error { return db.st.Checkpoint() }

// Close flushes and closes the write-ahead log of a durable database.
// Mutations after Close fail; reads keep serving the in-memory state.
// Closing an in-memory database is a no-op on the store, but always stops
// the SubmitBatch coalescer first: later submissions fail fast, and
// batches already accepted drain — commit and fsync — before the store
// closes underneath them.
func (db *DB) Close() error {
	db.committer().Close()
	return db.st.Close()
}

// AddUser registers a community member and returns their id.
func (db *DB) AddUser(name string) (UserID, error) { return db.st.AddUser(name) }

// UserID resolves a user name to an id.
func (db *DB) UserID(name string) (UserID, bool) { return db.st.UserID(name) }

// UserName resolves a user id to a name.
func (db *DB) UserName(id UserID) (string, bool) { return db.st.UserName(id) }

// Users lists all registered user ids.
func (db *DB) Users() []UserID { return db.st.Users() }

// Exec runs one BeliefSQL statement (query or DML).
func (db *DB) Exec(beliefSQL string) (*Result, error) { return db.tr.Exec(beliefSQL) }

// ExecScript runs a semicolon-separated BeliefSQL script and returns the
// last result.
func (db *DB) ExecScript(script string) (*Result, error) { return db.tr.ExecScript(script) }

// Query is Exec for statements expected to return rows.
func (db *DB) Query(beliefSQL string) (*Result, error) { return db.tr.Exec(beliefSQL) }

// Translate compiles a BeliefSQL SELECT into the plain SQL that Exec would
// run against the internal schema (Algorithm 1), without executing it.
func (db *DB) Translate(beliefSQL string) (string, error) {
	stmt, err := bsql.Parse(beliefSQL)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(bsql.Select)
	if !ok {
		return "", fmt.Errorf("beliefdb: Translate expects a SELECT")
	}
	return db.tr.TranslateSelect(sel)
}

// SQL runs plain SQL directly against the internal schema (for inspection
// and power users; the internal tables are Users, _e, _d, _s, <rel>_star,
// <rel>_v). A script is one transaction: BEGIN, COMMIT and ROLLBACK are
// refused (see store.Store.SQL).
func (db *DB) SQL(sql string) (*Result, error) { return db.st.SQL(sql) }

// NewTuple builds a tuple for the typed API, converting Go values: string,
// int/int64, float64, bool, nil, or Value.
func (db *DB) NewTuple(rel string, vals ...interface{}) (Tuple, error) {
	vs := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := toValue(v)
		if err != nil {
			return Tuple{}, err
		}
		vs[i] = cv
	}
	return Tuple{Rel: rel, Vals: vs}, nil
}

func toValue(v interface{}) (Value, error) {
	switch x := v.(type) {
	case nil:
		return val.Null(), nil
	case Value:
		return x, nil
	case string:
		return val.Str(x), nil
	case int:
		return val.Int(int64(x)), nil
	case int64:
		return val.Int(x), nil
	case float64:
		return val.Float(x), nil
	case bool:
		return val.Bool(x), nil
	default:
		return val.Null(), fmt.Errorf("beliefdb: unsupported value type %T", v)
	}
}

// InsertBelief asserts that the users along path believe (Pos) or
// disbelieve (Neg) the tuple. An empty path inserts plain content. It
// reports changed=false when the statement was already present and an
// error when it contradicts the same world's explicit beliefs.
func (db *DB) InsertBelief(path Path, sign Sign, t Tuple) (bool, error) {
	return db.st.Insert(Statement{Path: path, Sign: sign, Tuple: t})
}

// BatchResult reports a batch's outcome: how many statements were applied
// and how many changed state. On error nothing was applied.
type BatchResult = store.BatchResult

// Batch collects belief mutations to be applied atomically by DB.Batch.
// Methods only record the statements; nothing touches the database until
// the batch commits.
type Batch struct {
	ops   []store.BatchOp
	token string
}

// SetToken attaches a client-generated idempotency token ("" = none) for
// SubmitBatch. A token already applied — journaled in the WAL and entered
// into a bounded dedup table that recovery rebuilds — makes SubmitBatch
// return the original result instead of re-applying the batch, so a retry
// after a lost acknowledgement commits exactly once, even across a
// restart. Tokens should be unique per logical batch (the network client
// generates 16 random bytes, hex-encoded); reusing one suppresses the
// second application.
func (b *Batch) SetToken(token string) { b.token = token }

// Insert queues an insert of one explicit belief statement.
func (b *Batch) Insert(path Path, sign Sign, t Tuple) {
	b.ops = append(b.ops, store.BatchOp{Stmt: Statement{Path: path, Sign: sign, Tuple: t}})
}

// Delete queues a retraction of one explicit belief statement.
func (b *Batch) Delete(path Path, sign Sign, t Tuple) {
	b.ops = append(b.ops, store.BatchOp{Delete: true, Stmt: Statement{Path: path, Sign: sign, Tuple: t}})
}

// Len reports how many statements the batch holds.
func (b *Batch) Len() int { return len(b.ops) }

// CheckShard verifies the batch belongs on shard self of a cluster
// partitioned into shards parts with the given seed: every queued insert's
// row key must hash to self. Deletes are exempt — they were resolved
// against this shard's own state (ParseBatch matches DELETE ... WHERE
// locally), so whatever they target lives here by construction; that is
// what lets a router broadcast a DELETE to every shard and have each one
// retract only its local matches. A sharded server runs this check before
// committing, refusing mis-routed writes instead of silently splitting a
// key across shards.
func (b *Batch) CheckShard(seed uint64, shards, self int) error {
	if err := shard.Validate(self, shards); err != nil {
		return err
	}
	m := shard.Map{Count: shards, Seed: seed}
	for _, op := range b.ops {
		if op.Delete {
			continue
		}
		if owner := m.Owner(op.Stmt.Tuple.Rel, op.Stmt.Tuple.Key()); owner != self {
			return fmt.Errorf("beliefdb: key %s of %s belongs to shard %d, not shard %d",
				op.Stmt.Tuple.Key().SQL(), op.Stmt.Tuple.Rel, owner, self)
		}
	}
	return nil
}

// Batch applies a group of belief mutations atomically under one
// writer-lock acquisition and one WAL commit — on a durable database the
// whole group costs a single fsync (group commit) instead of one per
// statement. fn queues statements on the Batch; when it returns nil the
// batch is validated, journaled, and applied all-or-nothing: any failing
// statement (a conflict, an arity error) rolls the entire batch back. A
// non-nil error from fn abandons the batch without touching the database.
//
// Dependent-world propagation (Algorithm 4's lines 8-14) runs once per
// affected (relation, world, key) slice for the whole batch instead of once
// per statement, so bulk ingest also does asymptotically less
// belief-propagation work; the final state is identical to applying the
// statements one at a time.
func (db *DB) Batch(fn func(b *Batch) error) (BatchResult, error) {
	var b Batch
	if err := fn(&b); err != nil {
		return BatchResult{}, err
	}
	return db.st.ApplyBatch(b.ops)
}

// InsertBeliefs inserts a group of explicit belief statements as one atomic
// batch (see Batch): one lock acquisition, one WAL commit, one propagation
// pass.
func (db *DB) InsertBeliefs(stmts []Statement) (BatchResult, error) {
	ops := make([]store.BatchOp, len(stmts))
	for i, s := range stmts {
		ops[i] = store.BatchOp{Stmt: s}
	}
	return db.st.ApplyBatch(ops)
}

// ExecBatch runs a semicolon-separated BeliefSQL script of INSERT and
// DELETE statements as one atomic batch. DELETE ... WHERE clauses resolve
// against the state before the batch; everything then applies under a
// single writer-lock acquisition and WAL commit, all-or-nothing.
func (db *DB) ExecBatch(script string) (BatchResult, error) {
	return db.tr.ExecBatch(script)
}

// ParseBatch compiles a semicolon-separated BeliefSQL script of INSERT and
// DELETE statements into a Batch without applying it — the ExecBatch front
// half. DELETE ... WHERE clauses resolve against the current state, exactly
// as ExecBatch would resolve them; apply the result with DB.Batch-style
// atomicity via SubmitBatch.
func (db *DB) ParseBatch(script string) (*Batch, error) {
	ops, err := db.tr.CompileBatch(script)
	if err != nil {
		return nil, err
	}
	return &Batch{ops: ops}, nil
}

// committer returns the shared group-commit coalescer, creating it on
// first use.
func (db *DB) committer() *store.Coalescer {
	db.coalOnce.Do(func() { db.coal = store.NewCoalescer(db.st) })
	return db.coal
}

// SetGroupCommitWindow sets how long a SubmitBatch commit round lingers
// before hitting the disk, giving concurrently submitted batches time to
// join it — the commit-delay knob of classic group commit. Zero (the
// default) commits immediately: batches then share an fsync only when they
// happen to overlap a round already in flight. A sub-millisecond window
// makes the amortization robust against scheduling luck at the cost of
// that much extra latency per batch; beliefserver sets one, a purely
// embedded caller usually should not. The window does not affect Batch,
// InsertBeliefs, or ExecBatch, which commit on the caller's goroutine.
func (db *DB) SetGroupCommitWindow(d time.Duration) { db.committer().SetWindow(d) }

// SubmitBatch applies a batch through the shared group-commit coalescer:
// batches submitted concurrently from several goroutines (or, through
// beliefserver, several network clients) are committed together under a
// single writer-lock acquisition and a single WAL fsync, while each batch
// stays individually atomic — one batch's conflict rolls back that batch
// alone. A lone submitter pays the same cost as DB.Batch plus a scheduling
// hop, so the method earns its keep only under write concurrency.
//
// The context covers waiting: once a batch is accepted into a commit round
// it applies (and, on a durable database, fsyncs) regardless of later
// cancellation — SubmitBatch then reports the context error, and the caller
// cannot know whether the batch committed, the same uncertainty as any
// client abandoning an in-flight write. An empty batch returns a zero
// result without touching the coalescer.
func (db *DB) SubmitBatch(ctx context.Context, b *Batch) (BatchResult, error) {
	if b == nil || len(b.ops) == 0 {
		return BatchResult{}, nil
	}
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	if ctx.Done() == nil {
		// An uncancellable context (the server's per-request default)
		// needs no watcher goroutine — skip the spawn and channel on the
		// hot write path.
		return db.committer().SubmitToken(b.ops, b.token)
	}
	type outcome struct {
		res BatchResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := db.committer().SubmitToken(b.ops, b.token)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-ctx.Done():
		return BatchResult{}, ctx.Err()
	}
}

// WALSyncs reports how many fsyncs the durable write-ahead log has issued
// in this session (zero for in-memory databases) — the cost SubmitBatch's
// group commit amortizes across concurrent writers. The server benchmarks
// report the delta per operation.
func (db *DB) WALSyncs() uint64 { return db.st.WALSyncs() }

// DeleteBelief retracts an explicit belief statement.
func (db *DB) DeleteBelief(path Path, sign Sign, t Tuple) (bool, error) {
	return db.st.Delete(Statement{Path: path, Sign: sign, Tuple: t})
}

// Believes reports whether the belief world at path entails the tuple as a
// positive belief (including beliefs inherited by the message-board
// default).
func (db *DB) Believes(path Path, t Tuple) (bool, error) {
	return db.st.Entails(path, t, core.Pos)
}

// Disbelieves reports whether the world at path entails the tuple as a
// negative belief — stated, or unstated because the world holds a
// different tuple under the same key.
func (db *DB) Disbelieves(path Path, t Tuple) (bool, error) {
	return db.st.Entails(path, t, core.Neg)
}

// World materializes the full belief world at path: every signed tuple the
// users along the path (are entailed to) believe, with explicit/inherited
// provenance.
func (db *DB) World(path Path) ([]BeliefEntry, error) {
	w, err := db.st.WorldContent(path)
	if err != nil {
		return nil, err
	}
	var out []BeliefEntry
	for _, e := range w.Entries(core.Pos) {
		out = append(out, BeliefEntry{Tuple: e.Tuple, Sign: Pos, Explicit: e.Explicit})
	}
	for _, e := range w.Entries(core.Neg) {
		out = append(out, BeliefEntry{Tuple: e.Tuple, Sign: Neg, Explicit: e.Explicit})
	}
	return out, nil
}

// Statements returns all explicit belief statements.
func (db *DB) Statements() ([]Statement, error) { return db.st.ExplicitStatements() }

// Dump renders the database's logical content — users and explicit belief
// statements — as a replayable BeliefSQL script (loadable with ExecScript
// after re-registering the same schema and users; user registrations are
// emitted as comments because they are API calls, not BeliefSQL).
func (db *DB) Dump() (string, error) {
	var sb strings.Builder
	sb.WriteString("-- beliefdb dump\n")
	for _, uid := range db.Users() {
		name, _ := db.UserName(uid)
		fmt.Fprintf(&sb, "-- user %d: %s\n", uid, name)
	}
	stmts, err := db.Statements()
	if err != nil {
		return "", err
	}
	for _, st := range stmts {
		sb.WriteString("insert into ")
		for _, u := range st.Path {
			name, ok := db.UserName(u)
			if !ok {
				return "", fmt.Errorf("beliefdb: dump found unknown user %d", u)
			}
			fmt.Fprintf(&sb, "BELIEF '%s' ", strings.ReplaceAll(name, "'", "''"))
		}
		if st.Sign == Neg {
			sb.WriteString("not ")
		}
		sb.WriteString(st.Tuple.Rel)
		sb.WriteString(" values (")
		for i, v := range st.Tuple.Vals {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.SQL())
		}
		sb.WriteString(");\n")
	}
	return sb.String(), nil
}

// Stats reports the size of the internal representation.
func (db *DB) Stats() Stats { return db.st.Stats() }

// Rebuild reconstructs the internal representation from the explicit
// statements (garbage-collecting unsupported states and tuples).
func (db *DB) Rebuild() error { return db.st.Rebuild() }

// Vacuum removes ground tuples no longer referenced by any belief.
func (db *DB) Vacuum() (int, error) { return db.st.Vacuum() }
