package query

import (
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// RowExpr is an expression compiled once against the columns of a single
// row, named cols and optionally qualified by a relation name. It backs the
// WHERE and SET clauses of BeliefSQL DML, which run on explicit statements
// of one world rather than on engine tables. Compiling before any row is
// seen makes an unknown column an error whatever the data holds.
type RowExpr struct {
	ce compiledExpr // nil for an absent expression
}

// CompileRow compiles e against the row schema relName(cols...). A nil e
// compiles to the predicate that holds on every row.
func CompileRow(e sqlparser.Expr, relName string, cols []string) (RowExpr, error) {
	if e == nil {
		return RowExpr{}, nil
	}
	schema := make(relSchema, len(cols))
	for i, c := range cols {
		schema[i] = colID{rel: relName, name: c}
	}
	ce, err := compileExpr(e, schema)
	if err != nil {
		return RowExpr{}, err
	}
	return RowExpr{ce: ce}, nil
}

// Eval evaluates a compiled (non-nil) expression on one row.
func (x RowExpr) Eval(row []val.Value) (val.Value, error) { return x.ce(row) }

// Holds evaluates the expression as a predicate: only a true BOOL holds
// (NULL and any other value count as false), and an absent expression
// holds on every row.
func (x RowExpr) Holds(row []val.Value) (bool, error) {
	if x.ce == nil {
		return true, nil
	}
	v, err := x.ce(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Kind() == val.KindBool && v.AsBool(), nil
}
