package store

import (
	"fmt"

	"beliefdb/internal/core"
	"beliefdb/internal/engine"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/wal"
)

// SQL runs a semicolon-separated script of plain SQL against the internal
// schema and returns the last statement's result. It is the one raw-SQL
// entry point, for inspection of the internal tables and for the text
// DB.Translate shows; a translated BeliefSQL SELECT (Algorithm 1) runs
// through Pinned.Read instead, as the AST the translator built.
//
// Raw SQL reads; the store writes. A script of SELECT and EXPLAIN statements
// runs lock-free on the published view's catalog. A script that also holds
// CREATE [ORDERED] INDEX is one writer commit: under the exclusive lock it is
// journaled write-ahead, run, and published. Any other statement — INSERT,
// UPDATE, DELETE, CREATE/DROP TABLE, BEGIN/COMMIT/ROLLBACK — is refused by
// name before anything is journaled: the internal tables encode the
// canonical Kripke structure of the explicit statements, so only the update
// algorithms may change them.
func (st *Store) SQL(text string) (*query.Result, error) {
	stmts, err := sqlparser.ParseAll(text)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("store: empty SQL script")
	}
	if query.AllReadOnly(stmts) {
		return runScript(st.pin().cat, stmts)
	}
	if kw := refusedStmt(stmts); kw != "" {
		return nil, fmt.Errorf("store: raw SQL only reads and creates indexes: %s refused; "+
			"write beliefs through BeliefSQL or the typed API", kw)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	return st.sqlLocked(text, stmts)
}

// Pinned is one published view held for the length of a read: a
// translation that resolves users and tables against it and the run of its
// result see the same epoch, whatever commits in between.
type Pinned struct{ v *view }

// Pin pins the current published view.
func (st *Store) Pin() Pinned { return Pinned{st.pin()} }

// Catalog returns the pinned view's frozen engine catalog.
func (p Pinned) Catalog() *engine.Catalog { return p.v.cat }

// UserID resolves a user name against the pinned view.
func (p Pinned) UserID(name string) (core.UserID, bool) {
	uid, ok := p.v.usersByName[name]
	return uid, ok
}

// Read runs one parsed SELECT or EXPLAIN on the pinned view, lock-free, as
// SQL runs a read-only script; a translated BeliefSQL query reaches it as
// the AST the translator built, never as text.
func (p Pinned) Read(stmt sqlparser.Statement) (*query.Result, error) {
	if !query.ReadOnly(stmt) {
		return nil, fmt.Errorf("store: a pinned view runs SELECT and EXPLAIN only, not %T", stmt)
	}
	return query.Run(p.v.cat, stmt)
}

// sqlLocked is SQL's writer half, shared with WAL replay and replicas. The
// caller holds the writer lock, and stmts are reads and index DDL only.
func (st *Store) sqlLocked(text string, stmts []sqlparser.Statement) (*query.Result, error) {
	if err := st.logOp(wal.SQL(text)); err != nil {
		return nil, err
	}
	return runScript(st.cat, stmts)
}

// runScript runs stmts in order against cat, stopping at the first failure,
// and returns the last statement's result.
func runScript(cat *engine.Catalog, stmts []sqlparser.Statement) (*query.Result, error) {
	var res *query.Result
	for _, s := range stmts {
		var err error
		if res, err = query.Run(cat, s); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// refusedStmt names the first statement of a script that raw SQL may not
// run — anything but SELECT, EXPLAIN and CREATE [ORDERED] INDEX — or
// returns "" when it has none.
func refusedStmt(stmts []sqlparser.Statement) string {
	for _, s := range stmts {
		switch s.(type) {
		case sqlparser.Select, sqlparser.Explain, sqlparser.CreateIndex:
		case sqlparser.Insert:
			return "INSERT"
		case sqlparser.Update:
			return "UPDATE"
		case sqlparser.Delete:
			return "DELETE"
		case sqlparser.CreateTable:
			return "CREATE TABLE"
		case sqlparser.DropTable:
			return "DROP TABLE"
		case sqlparser.Begin:
			return "BEGIN"
		case sqlparser.Commit:
			return "COMMIT"
		case sqlparser.Rollback:
			return "ROLLBACK"
		default:
			return fmt.Sprintf("%T", s)
		}
	}
	return ""
}
