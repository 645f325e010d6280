package query

import "beliefdb/internal/sqlparser"

// ReadOnly reports whether stmt can run under a shared (reader) lock of the
// single-writer / multi-reader model: it changes no table and no index.
// SELECT — and with it every BCQ produced by the BeliefSQL translation
// (Algorithm 1) — is read-only, and so is EXPLAIN, which executes its
// SELECT for real but discards the rows. CREATE [ORDERED] INDEX needs the
// exclusive writer lock; every other statement Run refuses.
func ReadOnly(stmt sqlparser.Statement) bool {
	switch stmt.(type) {
	case sqlparser.Select, sqlparser.Explain:
		return true
	default:
		return false
	}
}

// AllReadOnly reports whether every statement of a batch is read-only, i.e.
// the whole batch can run under one shared lock acquisition.
func AllReadOnly(stmts []sqlparser.Statement) bool {
	for _, s := range stmts {
		if !ReadOnly(s) {
			return false
		}
	}
	return true
}
