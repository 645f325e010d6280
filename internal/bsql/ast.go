// Package bsql implements BeliefSQL, the paper's SQL extension (Fig. 1):
// relation names in SELECT/INSERT/DELETE/UPDATE may be prefixed with one or
// more `BELIEF user` modalities and an optional `not`. Queries compile into
// belief conjunctive queries (Def. 13) and then, via Algorithm 1, into
// plain SQL over the internal schema, which the embedded engine executes.
// Data manipulation statements route to the store's update algorithms.
package bsql

import (
	"beliefdb/internal/sqlparser"
)

// PathElem is one `BELIEF x` prefix: either a user name literal ('Bob') or
// a correlated column reference (U.uid) that binds the believer to another
// FROM item.
type PathElem struct {
	Literal string              // user name, when IsRef is false
	Ref     sqlparser.ColumnRef // column reference, when IsRef is true
	IsRef   bool
}

// BeliefRef is a FROM item or DML target: a relation with an optional
// belief path and negation.
type BeliefRef struct {
	Path    []PathElem
	Negated bool // the `not` modifier
	Table   string
	Alias   string
}

// Name returns the binding name of the reference.
func (br BeliefRef) Name() string {
	if br.Alias != "" {
		return br.Alias
	}
	return br.Table
}

// Statement is any parsed BeliefSQL statement.
type Statement interface{ beliefStmt() }

// Select is a BeliefSQL query. GROUP BY, ORDER BY and LIMIT are extensions
// beyond the paper's Fig. 1 grammar; they pass through to the translated
// SQL after the Algorithm 1 rewriting.
type Select struct {
	Items   []sqlparser.SelectItem
	From    []BeliefRef
	Where   sqlparser.Expr
	GroupBy []sqlparser.Expr
	OrderBy []sqlparser.OrderItem
	Limit   int // -1 when absent
}

// Insert is `insert into ((BELIEF user)+ not?)? relation values (...)`.
type Insert struct {
	Target BeliefRef
	Rows   [][]sqlparser.Expr
}

// Delete is `delete from ((BELIEF user)+ not?)? relation where ...`.
type Delete struct {
	Target BeliefRef
	Where  sqlparser.Expr
}

// Update is `update ((BELIEF user)+ not?)? relation set ... where ...`.
type Update struct {
	Target BeliefRef
	Set    []sqlparser.Assignment
	Where  sqlparser.Expr
}

// Explain is EXPLAIN SELECT ...: the query is translated through Algorithm 1
// like any BeliefSQL SELECT, but the engine reports the planner's chosen
// access paths instead of the query result.
type Explain struct {
	Query Select
}

func (Select) beliefStmt()  {}
func (Explain) beliefStmt() {}
func (Insert) beliefStmt()  {}
func (Delete) beliefStmt()  {}
func (Update) beliefStmt()  {}

// ReadOnly reports whether every statement only reads: SELECT and EXPLAIN.
// A replica serves such a script from its own state, and so does a sharded
// server's Exec path; anything else must go to the primary, or through the
// router's owner-checked batches.
func ReadOnly(stmts []Statement) bool {
	for _, s := range stmts {
		switch s.(type) {
		case Select, Explain:
		default:
			return false
		}
	}
	return true
}
