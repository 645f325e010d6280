package beliefdb

import (
	"errors"

	"beliefdb/internal/bsql"
	"beliefdb/internal/store"
)

// ErrStaleRead marks a read refused by a replica because its replicated
// state has not yet caught up to the caller's read-your-writes watermark
// (the WAL position acknowledged for the caller's last write). The wire
// protocol carries the condition as a stable error code and the network
// client classifies it with errors.Is — never by matching error text — and
// transparently falls back to the primary.
var ErrStaleRead = errors.New("beliefdb: replica is behind the read watermark")

// Store exposes the underlying relational store for the in-process
// machinery that ships and applies WAL records (internal/server's follow
// stream and replica applier). It is not part of the stable embedded API.
func (db *DB) Store() *store.Store { return db.st }

// ReadOnlyScript reports whether every statement of a semicolon-separated
// BeliefSQL script only reads (SELECT or EXPLAIN). Replicas use it to refuse
// DML smuggled through the query path: applying a write outside the
// replication stream would silently fork the replica from its primary.
func ReadOnlyScript(script string) (bool, error) {
	stmts, err := bsql.ParseAll(script)
	if err != nil {
		return false, err
	}
	return bsql.ReadOnly(stmts), nil
}
