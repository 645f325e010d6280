package sqlparser

import (
	"strconv"
	"strings"

	"beliefdb/internal/val"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       val.Kind
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

// CreateIndex is CREATE [ORDERED] INDEX name ON table (cols...).
// Ordered selects the B-tree shape (range scans, sorted walks) over the
// default hash shape.
type CreateIndex struct {
	Name    string
	Table   string
	Cols    []string
	Ordered bool
}

// Explain is EXPLAIN SELECT ...: run the planner over the query and return
// the chosen access path per binding as rows instead of executing it.
type Explain struct {
	Query Select
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// TableRef is one item in a FROM list.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// Name returns the effective binding name of the reference.
func (tr TableRef) Name() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Table
}

// SelectItem is one projection: expression with optional alias, or a star.
type SelectItem struct {
	Star      bool   // SELECT *
	TableStar string // SELECT t.*
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

// Assignment is one SET clause of UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Begin, Commit and Rollback are transaction control statements.
type (
	Begin    struct{}
	Commit   struct{}
	Rollback struct{}
)

func (CreateTable) stmt() {}
func (CreateIndex) stmt() {}
func (Explain) stmt()     {}
func (DropTable) stmt()   {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (Delete) stmt()      {}
func (Update) stmt()      {}
func (Begin) stmt()       {}
func (Commit) stmt()      {}
func (Rollback) stmt()    {}

// Expr is any SQL expression node.
type Expr interface {
	exprNode()
	// String renders the expression back to parseable SQL.
	String() string
}

// Literal is a constant value.
type Literal struct{ Val val.Value }

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

// BinaryExpr applies Op to L and R. Op is upper-cased for AND/OR.
type BinaryExpr struct {
	Op   string // "=", "<>", "<", ">", "<=", ">=", "AND", "OR", "+", "-", "*", "/"
	L, R Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT", "-"
	X  Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name string // upper-cased
	Star bool   // COUNT(*)
	Args []Expr
}

// Exists is EXISTS (SELECT ...). The subquery may be correlated: a column
// reference that no table of its own FROM list resolves refers to the
// enclosing query.
type Exists struct{ Query Select }

func (Literal) exprNode()    {}
func (ColumnRef) exprNode()  {}
func (BinaryExpr) exprNode() {}
func (UnaryExpr) exprNode()  {}
func (IsNull) exprNode()     {}
func (FuncCall) exprNode()   {}
func (Exists) exprNode()     {}

// String renders the literal so that it parses back to the same value and
// kind: an integral float keeps a decimal point (2.0, not 2), which would
// parse as an integer and divide as one.
func (e Literal) String() string {
	s := e.Val.SQL()
	if e.Val.Kind() == val.KindFloat && !strings.ContainsAny(s, ".eEnN") {
		s += ".0"
	}
	return s
}

func (e ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

func (e BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

func (e UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.X.String() + ")"
	}
	return "(" + e.Op + e.X.String() + ")"
}

func (e IsNull) String() string {
	if e.Negate {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

func (e FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (e Exists) String() string { return "EXISTS (" + e.Query.String() + ")" }

func (tr TableRef) String() string {
	if tr.Alias != "" {
		return tr.Table + " AS " + tr.Alias
	}
	return tr.Table
}

func (it SelectItem) String() string {
	switch {
	case it.Star:
		return "*"
	case it.TableStar != "":
		return it.TableStar + ".*"
	case it.Alias != "":
		return it.Expr.String() + " AS " + it.Alias
	default:
		return it.Expr.String()
	}
}

// String renders the SELECT back to parseable SQL.
func (s Select) String() string {
	from := make([]string, len(s.From))
	for i, ref := range s.From {
		from[i] = ref.String()
	}
	return s.Render(from)
}

// Render renders the SELECT with the given FROM items in place of s.From,
// so a dialect whose FROM items differ (BeliefSQL) shares every other
// clause.
func (s Select) Render(from []string) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString(" FROM " + strings.Join(from, ", "))
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	for i, g := range s.GroupBy {
		if i == 0 {
			sb.WriteString(" GROUP BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(g.String())
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			sb.WriteString(" ORDER BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(o.Expr.String())
		if o.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	return sb.String()
}
