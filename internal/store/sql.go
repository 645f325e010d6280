package store

import (
	"fmt"

	"beliefdb/internal/engine"
	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/wal"
)

// SQL runs a semicolon-separated script of plain SQL against the internal
// schema and returns the last statement's result. It is the one raw-SQL
// entry point: translated BeliefSQL SELECTs (Algorithm 1) run through it,
// and so does inspection and power-user access to the internal tables.
//
// A script of SELECT and EXPLAIN statements runs lock-free on the published
// view's catalog. Any other script is one writer commit: under the
// exclusive lock it is checked, journaled write-ahead, run, and published.
// A script of several DML statements runs as one engine transaction, so a
// failing statement rolls the whole script back; a script holding DDL runs
// statement by statement. BEGIN, COMMIT and ROLLBACK are refused: a script
// is one transaction, and a transaction spanning scripts would belong to no
// session — any caller could end it and every reader would see its rows.
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
	if kw := txnControl(stmts); kw != "" {
		return nil, fmt.Errorf("store: %s refused: a script is one transaction", kw)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	defer st.publishLocked()
	return st.sqlLocked(text, stmts)
}

// sqlLocked is SQL's writer half, shared with WAL replay. The caller holds
// the writer lock, and no statement of stmts controls a transaction.
func (st *Store) sqlLocked(text string, stmts []sqlparser.Statement) (*query.Result, error) {
	if st.durable {
		// CREATE INDEX is journaled like any mutation and its definition
		// survives checkpoints in the snapshot's index section. CREATE/DROP
		// TABLE stay refused: the snapshot format persists only the belief
		// schema declared at open time, so a journaled table would be lost
		// at the next checkpoint.
		for _, s := range stmts {
			switch s.(type) {
			case sqlparser.CreateTable, sqlparser.DropTable:
				return nil, fmt.Errorf("store: %T is not supported on a durable database: "+
					"snapshots persist only the belief schema declared at open time", s)
			}
		}
	}
	if err := st.logOp(wal.SQL(text)); err != nil {
		return nil, err
	}
	if len(stmts) == 1 || !query.AllDML(stmts) {
		return runScript(st.cat, stmts)
	}
	txn, err := st.cat.Begin()
	if err != nil {
		return nil, err
	}
	res, err := runScript(st.cat, stmts)
	if err != nil {
		txn.Rollback()
		return nil, err
	}
	return res, txn.Commit()
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

// txnControl names the first BEGIN, COMMIT or ROLLBACK of a script, or
// returns "" when it has none.
func txnControl(stmts []sqlparser.Statement) string {
	for _, s := range stmts {
		switch s.(type) {
		case sqlparser.Begin:
			return "BEGIN"
		case sqlparser.Commit:
			return "COMMIT"
		case sqlparser.Rollback:
			return "ROLLBACK"
		}
	}
	return ""
}
