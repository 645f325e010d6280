// Package query plans and executes parsed SQL statements against an engine
// catalog: SELECT, EXPLAIN and CREATE [ORDERED] INDEX. A SELECT runs as one greedy left-deep chain of steps over a
// reused frame (access paths with pushed-down predicates, index, hash and
// cross joins, EXISTS conjuncts as semi-joins on the same run loop) into a
// sink that projects or aggregates, then DISTINCT, ORDER BY and LIMIT.
package query

import (
	"fmt"
	"strings"

	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// colID names one column of an intermediate row: the binding (alias) of the
// table it came from plus the column name. bind is that binding's position
// in its FROM list, where the planner needs it; outer marks a column of the
// query enclosing an EXISTS subquery.
type colID struct {
	rel   string
	name  string
	bind  int
	outer bool
}

// relSchema is the schema of an intermediate row set.
type relSchema []colID

// find resolves a column reference. Qualified refs must match rel+name;
// unqualified refs must match a unique name. The enclosing query's columns
// are searched only for a reference whose alias (or, unqualified, whose
// name) no other column has: a subquery's own names shadow them.
func (s relSchema) find(ref sqlparser.ColumnRef) (int, error) {
	for _, outer := range [2]bool{false, true} {
		found, alias := -1, false
		for i, c := range s {
			switch {
			case c.outer != outer:
			case ref.Table != "":
				if c.rel == ref.Table {
					if c.name == ref.Column {
						return i, nil
					}
					alias = true
				}
			case c.name == ref.Column:
				if found >= 0 {
					return -1, fmt.Errorf("query: ambiguous column %s", ref.Column)
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
		if alias {
			break
		}
	}
	if ref.Table != "" {
		return -1, fmt.Errorf("query: unknown column %s.%s", ref.Table, ref.Column)
	}
	return -1, fmt.Errorf("query: unknown column %s", ref.Column)
}

// compiledExpr evaluates an expression against an intermediate row.
type compiledExpr func(row []val.Value) (val.Value, error)

// errExistsPosition is the refusal of an EXISTS anywhere but where the
// planner can run it as a semi-join.
var errExistsPosition = fmt.Errorf("query: EXISTS is supported only as a top-level AND-ed condition of a SELECT's WHERE clause (not under OR/NOT, inside another EXISTS, in the select list, or in DML)")

// compileExpr resolves column references against schema and returns an
// evaluator. Aggregate function calls are rejected here; the aggregation
// stage compiles them separately.
func compileExpr(e sqlparser.Expr, schema relSchema) (compiledExpr, error) {
	switch ex := e.(type) {
	case sqlparser.Literal:
		v := ex.Val
		return func([]val.Value) (val.Value, error) { return v, nil }, nil
	case sqlparser.ColumnRef:
		idx, err := schema.find(ex)
		if err != nil {
			return nil, err
		}
		return func(row []val.Value) (val.Value, error) { return row[idx], nil }, nil
	case sqlparser.BinaryExpr:
		l, err := compileExpr(ex.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(ex.R, schema)
		if err != nil {
			return nil, err
		}
		return compileBinary(ex.Op, l, r)
	case sqlparser.UnaryExpr:
		x, err := compileExpr(ex.X, schema)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "NOT":
			return func(row []val.Value) (val.Value, error) {
				v, err := x(row)
				if err != nil {
					return val.Null(), err
				}
				if v.IsNull() {
					return val.Bool(false), nil
				}
				if v.Kind() != val.KindBool {
					return val.Null(), fmt.Errorf("query: NOT applied to %s", v.Kind())
				}
				return val.Bool(!v.AsBool()), nil
			}, nil
		case "-":
			return func(row []val.Value) (val.Value, error) {
				v, err := x(row)
				if err != nil || v.IsNull() {
					return v, err
				}
				switch v.Kind() {
				case val.KindInt:
					return val.Int(-v.AsInt()), nil
				case val.KindFloat:
					return val.Float(-v.AsFloat()), nil
				}
				return val.Null(), fmt.Errorf("query: unary minus on %s", v.Kind())
			}, nil
		}
		return nil, fmt.Errorf("query: unknown unary op %q", ex.Op)
	case sqlparser.IsNull:
		x, err := compileExpr(ex.X, schema)
		if err != nil {
			return nil, err
		}
		neg := ex.Negate
		return func(row []val.Value) (val.Value, error) {
			v, err := x(row)
			if err != nil {
				return val.Null(), err
			}
			return val.Bool(v.IsNull() != neg), nil
		}, nil
	case sqlparser.FuncCall:
		return nil, fmt.Errorf("query: function %s not allowed in this context", ex.Name)
	case sqlparser.Exists:
		return nil, errExistsPosition
	}
	return nil, fmt.Errorf("query: unsupported expression %T", e)
}

func compileBinary(op string, l, r compiledExpr) (compiledExpr, error) {
	switch op {
	case "AND", "OR":
		isAnd := op == "AND"
		return func(row []val.Value) (val.Value, error) {
			lv, err := l(row)
			if err != nil {
				return val.Null(), err
			}
			lb := !lv.IsNull() && lv.Kind() == val.KindBool && lv.AsBool()
			if !lv.IsNull() && lv.Kind() != val.KindBool {
				return val.Null(), fmt.Errorf("query: %s applied to %s", op, lv.Kind())
			}
			// Short circuit (two-valued logic: NULL behaves as false).
			if isAnd && !lb {
				return val.Bool(false), nil
			}
			if !isAnd && lb {
				return val.Bool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return val.Null(), err
			}
			if !rv.IsNull() && rv.Kind() != val.KindBool {
				return val.Null(), fmt.Errorf("query: %s applied to %s", op, rv.Kind())
			}
			rb := !rv.IsNull() && rv.Kind() == val.KindBool && rv.AsBool()
			return val.Bool(rb), nil
		}, nil
	case "=", "<>", "<", ">", "<=", ">=":
		return func(row []val.Value) (val.Value, error) {
			lv, err := l(row)
			if err != nil {
				return val.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return val.Null(), err
			}
			// SQL-ish: comparisons involving NULL are not satisfied.
			if lv.IsNull() || rv.IsNull() {
				return val.Bool(false), nil
			}
			cmp, ok := val.Compare(lv, rv)
			if !ok {
				// Cross-kind comparison: equality is false, inequality true,
				// ordering is an error.
				switch op {
				case "=":
					return val.Bool(false), nil
				case "<>":
					return val.Bool(true), nil
				}
				return val.Null(), fmt.Errorf("query: cannot compare %s with %s", lv.Kind(), rv.Kind())
			}
			switch op {
			case "=":
				return val.Bool(cmp == 0), nil
			case "<>":
				return val.Bool(cmp != 0), nil
			case "<":
				return val.Bool(cmp < 0), nil
			case ">":
				return val.Bool(cmp > 0), nil
			case "<=":
				return val.Bool(cmp <= 0), nil
			default:
				return val.Bool(cmp >= 0), nil
			}
		}, nil
	case "+", "-", "*", "/":
		return func(row []val.Value) (val.Value, error) {
			lv, err := l(row)
			if err != nil {
				return val.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return val.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return val.Null(), nil
			}
			if op == "+" && lv.Kind() == val.KindString && rv.Kind() == val.KindString {
				return val.Str(lv.AsString() + rv.AsString()), nil
			}
			ln := lv.Kind() == val.KindInt || lv.Kind() == val.KindFloat
			rn := rv.Kind() == val.KindInt || rv.Kind() == val.KindFloat
			if !ln || !rn {
				return val.Null(), fmt.Errorf("query: arithmetic on %s and %s", lv.Kind(), rv.Kind())
			}
			if lv.Kind() == val.KindInt && rv.Kind() == val.KindInt {
				a, b := lv.AsInt(), rv.AsInt()
				switch op {
				case "+":
					return val.Int(a + b), nil
				case "-":
					return val.Int(a - b), nil
				case "*":
					return val.Int(a * b), nil
				default:
					if b == 0 {
						return val.Null(), fmt.Errorf("query: division by zero")
					}
					return val.Int(a / b), nil
				}
			}
			a, b := lv.AsFloat(), rv.AsFloat()
			switch op {
			case "+":
				return val.Float(a + b), nil
			case "-":
				return val.Float(a - b), nil
			case "*":
				return val.Float(a * b), nil
			default:
				if b == 0 {
					return val.Null(), fmt.Errorf("query: division by zero")
				}
				return val.Float(a / b), nil
			}
		}, nil
	}
	return nil, fmt.Errorf("query: unknown operator %q", op)
}

// truthy evaluates a compiled predicate, treating NULL/false as false.
func truthy(p compiledExpr, row []val.Value) (bool, error) {
	v, err := p(row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != val.KindBool {
		return false, fmt.Errorf("query: predicate evaluated to %s, not BOOL", v.Kind())
	}
	return v.AsBool(), nil
}

// walkColumnRefs calls fn for every column reference of an expression.
func walkColumnRefs(e sqlparser.Expr, fn func(sqlparser.ColumnRef) error) error {
	switch ex := e.(type) {
	case sqlparser.Literal:
		return nil
	case sqlparser.ColumnRef:
		return fn(ex)
	case sqlparser.BinaryExpr:
		if err := walkColumnRefs(ex.L, fn); err != nil {
			return err
		}
		return walkColumnRefs(ex.R, fn)
	case sqlparser.UnaryExpr:
		return walkColumnRefs(ex.X, fn)
	case sqlparser.IsNull:
		return walkColumnRefs(ex.X, fn)
	case sqlparser.FuncCall:
		for _, a := range ex.Args {
			if err := walkColumnRefs(a, fn); err != nil {
				return err
			}
		}
		return nil
	case sqlparser.Exists:
		return errExistsPosition
	}
	return fmt.Errorf("query: unsupported expression %T", e)
}

// ContainsAggregate reports whether the expression tree contains an
// aggregate function call.
func ContainsAggregate(e sqlparser.Expr) bool {
	switch ex := e.(type) {
	case sqlparser.FuncCall:
		if isAggName(ex.Name) {
			return true
		}
		for _, a := range ex.Args {
			if ContainsAggregate(a) {
				return true
			}
		}
	case sqlparser.BinaryExpr:
		return ContainsAggregate(ex.L) || ContainsAggregate(ex.R)
	case sqlparser.UnaryExpr:
		return ContainsAggregate(ex.X)
	case sqlparser.IsNull:
		return ContainsAggregate(ex.X)
	}
	return false
}

func isAggName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}
