package query

import (
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// This file exports the pieces of the executor's post-processing pipeline
// that the scatter-gather merge (internal/router) reuses, so cross-shard
// DISTINCT, ORDER BY and aggregate recombination behave byte-for-byte like
// the single-node stages they mirror.

// DedupeRows removes duplicate rows, keeping first occurrences in order:
// the hash-bucketed machinery behind SELECT DISTINCT (rows that hash
// together are verified with real value equality, so colliding distinct
// rows are both kept). The input slice is not modified.
func DedupeRows(rows [][]val.Value) [][]val.Value {
	var seen rowIndex
	out := rows[:0:0]
	for _, r := range rows {
		if i, h := seen.find(out, r); i < 0 {
			seen.add(h)
			out = append(out, r)
		}
	}
	return out
}

// ItemName reports the output column name of a select item, exactly as the
// executor names result columns: the alias when present, a bare column
// reference's column name, otherwise the expression's text.
func ItemName(it sqlparser.SelectItem) string { return itemName(it) }

// OutputExpr evaluates an expression over one already-projected output row.
type OutputExpr func(row []val.Value) (val.Value, error)

// CompileOutput resolves an expression against a result's output columns
// (unqualified names, as they appear in a row header) and returns an
// evaluator over output rows. Aggregate calls are rejected — by the time a
// result has output columns, aggregation has already happened.
func CompileOutput(e sqlparser.Expr, cols []string) (OutputExpr, error) {
	schema := make(relSchema, len(cols))
	for i, n := range cols {
		schema[i] = colID{name: n}
	}
	ce, err := compileExpr(e, schema)
	if err != nil {
		return nil, err
	}
	return OutputExpr(ce), nil
}

// SortRows stable-sorts already-projected rows by the ORDER BY list,
// resolving each order expression exactly as the executor does once source
// rows are gone (after DISTINCT or aggregation): first against the output
// columns, then by matching the expression textually against a select
// item. items carries the select list the rows were projected from; cols
// their output column names.
func SortRows(orderBy []sqlparser.OrderItem, items []sqlparser.SelectItem, cols []string, rows [][]val.Value) error {
	keys := make([]orderKey, len(orderBy))
	for i, ob := range orderBy {
		ce, err := outputKey(ob.Expr, items, cols)
		if err != nil {
			return err
		}
		keys[i] = orderKey{e: ce, desc: ob.Desc}
	}
	return sortByKeys(rows, nil, keys)
}
