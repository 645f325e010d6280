package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"beliefdb/internal/val"
)

// Parser is a recursive-descent parser over the tokens of its input, all
// lexed up front: a lexical error surfaces before parsing starts, so moving
// to the next token cannot fail, and any token ahead can be looked at.
type Parser struct {
	toks []Token
	i    int   // index of the current token
	tok  Token // toks[i], or the end-of-input token past the last one
	end  int   // input length: the end-of-input token's offset
}

// newParser lexes src and returns a parser on its first token.
func newParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, i: -1, end: len(src)}
	p.advance()
	return p, nil
}

// Parse parses a single statement; empty statements around it (stray
// semicolons) are skipped.
func Parse(src string) (Statement, error) { return One(src, (*Parser).parseStatement) }

// ParseAll parses a semicolon-separated list of statements.
func ParseAll(src string) ([]Statement, error) { return Script(src, (*Parser).parseStatement) }

// Script parses a semicolon-separated script with stmt, a dialect's
// statement production; empty statements are skipped. It is the one script
// loop of SQL and BeliefSQL.
func Script[S any](src string, stmt func(*Parser) (S, error)) ([]S, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []S
	for {
		for p.match(";") {
		}
		if p.tok.Kind == TokEOF {
			return out, nil
		}
		s, err := stmt(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.tok.Kind != TokEOF && !p.is(";") {
			return nil, p.errf("expected ';' or end of input, got %q", p.tok.Text)
		}
	}
}

// One parses a script of exactly one statement with stmt.
func One[S any](src string, stmt func(*Parser) (S, error)) (S, error) {
	stmts, err := Script(src, stmt)
	if err == nil && len(stmts) != 1 {
		err = fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	if err != nil {
		var none S
		return none, err
	}
	return stmts[0], nil
}

func (p *Parser) advance() {
	p.i++
	p.tok = p.peek(0)
}

// peek returns the token n places after the current one.
func (p *Parser) peek(n int) Token {
	if i := p.i + n; i < len(p.toks) {
		return p.toks[i]
	}
	return Token{Kind: TokEOF, Pos: p.end}
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: %s", p.tok.Pos, fmt.Sprintf(format, args...))
}

// is reports whether t is the symbol s or, in any case, the keyword s.
func (t Token) is(s string) bool {
	switch t.Kind {
	case TokSymbol:
		return t.Text == s
	case TokIdent:
		return strings.EqualFold(t.Text, s)
	}
	return false
}

func (p *Parser) is(s string) bool { return p.tok.is(s) }

// match consumes the current token if it is the symbol or keyword s.
func (p *Parser) match(s string) bool {
	if !p.is(s) {
		return false
	}
	p.advance()
	return true
}

// expect consumes the symbol or keyword s or fails.
func (p *Parser) expect(s string) error {
	if p.match(s) {
		return nil
	}
	if isIdentStart(rune(s[0])) {
		return p.errf("expected %s, got %q", s, p.tok.Text)
	}
	return p.errf("expected %q, got %q", s, p.tok.Text)
}

// reservedWords may not be used as bare identifiers where ambiguity would
// arise (alias positions).
var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "insert": true, "into": true,
	"values": true, "delete": true, "update": true, "set": true, "create": true,
	"table": true, "index": true, "drop": true, "and": true, "or": true,
	"not": true, "is": true, "null": true, "distinct": true, "group": true,
	"order": true, "by": true, "limit": true, "asc": true, "desc": true,
	"as": true, "on": true, "primary": true, "key": true, "begin": true,
	"commit": true, "rollback": true, "true": true, "false": true,
}

func reserved(ident string) bool { return reservedWords[strings.ToLower(ident)] }

func (p *Parser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errf("expected identifier, got %q", p.tok.Text)
	}
	name := p.tok.Text
	p.advance()
	return name, nil
}

// alias parses an optional `[AS] name`. Without AS the name must not be a
// reserved word, so that `FROM t WHERE` does not read WHERE as t's alias.
func (p *Parser) alias() (string, error) {
	if p.match("as") {
		return p.expectIdent()
	}
	if p.tok.Kind != TokIdent || reserved(p.tok.Text) {
		return "", nil
	}
	return p.expectIdent()
}

// list parses item (',' item)*.
func list[T any](p *Parser, item func() (T, error)) ([]T, error) {
	var out []T
	for {
		x, err := item()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		if !p.match(",") {
			return out, nil
		}
	}
}

// parens parses '(' item (',' item)* ')'.
func parens[T any](p *Parser, item func() (T, error)) ([]T, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	out, err := list(p, item)
	if err != nil {
		return nil, err
	}
	return out, p.expect(")")
}

// RefFunc is a dialect's relation reference: it parses one FROM item when
// from is set (which may carry an alias), an INSERT, DELETE or UPDATE
// target otherwise.
type RefFunc[R any] func(p *Parser, from bool) (R, error)

// ParseStatement parses the statements that name relations — SELECT,
// EXPLAIN SELECT, INSERT ... VALUES, DELETE ... WHERE and
// UPDATE ... SET ... WHERE — with ref as the relation reference. The
// statement comes back with its relation fields (Select.From, and the
// Table of Insert, Delete and Update) empty: refs holds its references in
// source order, for the dialect to place.
func ParseStatement[R any](p *Parser, ref RefFunc[R]) (s Statement, refs []R, err error) {
	g := grammar[R]{Parser: p, ref: ref}
	s, err = g.statement()
	return s, g.refs, err
}

// grammar holds the statement productions SQL and BeliefSQL share. What a
// relation reference is — the one thing Fig. 1 adds to SQL — is its
// parameter.
type grammar[R any] struct {
	*Parser
	ref  RefFunc[R]
	refs []R // references of the statement being parsed
}

func (g *grammar[R]) statement() (Statement, error) {
	switch {
	case g.is("select"):
		return g.selectStmt()
	case g.match("explain"):
		// EXPLAIN SELECT is the only explainable statement.
		if !g.is("select") {
			return nil, g.errf("expected SELECT after EXPLAIN, got %q", g.tok.Text)
		}
		sel, err := g.selectStmt()
		return Explain{Query: sel}, err
	case g.match("insert"):
		return g.insert()
	case g.match("delete"):
		if err := g.expect("from"); err != nil {
			return nil, err
		}
		if err := g.target(); err != nil {
			return nil, err
		}
		where, err := g.where()
		return Delete{Where: where}, err
	case g.match("update"):
		return g.update()
	}
	return nil, g.errf("unexpected token %q at start of statement", g.tok.Text)
}

func (g *grammar[R]) target() error {
	ref, err := g.ref(g.Parser, false)
	g.refs = []R{ref}
	return err
}

func (g *grammar[R]) fromItem() (R, error) { return g.ref(g.Parser, true) }

// selectStmt parses SELECT [DISTINCT] items FROM refs [WHERE e]
// [GROUP BY e, ...] [ORDER BY e [ASC|DESC], ...] [LIMIT n].
func (g *grammar[R]) selectStmt() (sel Select, err error) {
	g.advance() // SELECT
	sel = Select{Distinct: g.match("distinct"), Limit: -1}
	if sel.Items, err = list(g.Parser, g.selectItem); err != nil {
		return sel, err
	}
	if err = g.expect("from"); err != nil {
		return sel, err
	}
	if g.refs, err = list(g.Parser, g.fromItem); err != nil {
		return sel, err
	}
	if sel.Where, err = g.where(); err != nil {
		return sel, err
	}
	if g.match("group") {
		if err = g.expect("by"); err != nil {
			return sel, err
		}
		if sel.GroupBy, err = list(g.Parser, g.parseExpr); err != nil {
			return sel, err
		}
	}
	if g.match("order") {
		if err = g.expect("by"); err != nil {
			return sel, err
		}
		if sel.OrderBy, err = list(g.Parser, g.orderItem); err != nil {
			return sel, err
		}
	}
	if g.match("limit") {
		if g.tok.Kind != TokNumber {
			return sel, g.errf("expected number after LIMIT")
		}
		if sel.Limit, err = strconv.Atoi(g.tok.Text); err != nil {
			return sel, g.errf("bad LIMIT value %q", g.tok.Text)
		}
		g.advance()
	}
	return sel, nil
}

func (g *grammar[R]) insert() (Statement, error) {
	if err := g.expect("into"); err != nil {
		return nil, err
	}
	if err := g.target(); err != nil {
		return nil, err
	}
	var ins Insert
	var err error
	if g.is("(") {
		if ins.Cols, err = parens(g.Parser, g.expectIdent); err != nil {
			return nil, err
		}
	}
	if err = g.expect("values"); err != nil {
		return nil, err
	}
	ins.Rows, err = list(g.Parser, g.valuesRow)
	return ins, err
}

func (p *Parser) valuesRow() ([]Expr, error) { return parens(p, p.parseExpr) }

func (g *grammar[R]) update() (Statement, error) {
	if err := g.target(); err != nil {
		return nil, err
	}
	if err := g.expect("set"); err != nil {
		return nil, err
	}
	set, err := list(g.Parser, g.assignment)
	if err != nil {
		return nil, err
	}
	where, err := g.where()
	return Update{Set: set, Where: where}, err
}

func (p *Parser) assignment() (Assignment, error) {
	col, err := p.expectIdent()
	if err == nil {
		err = p.expect("=")
	}
	if err != nil {
		return Assignment{}, err
	}
	e, err := p.parseExpr()
	return Assignment{Column: col, Value: e}, err
}

// where parses an optional WHERE clause.
func (p *Parser) where() (Expr, error) {
	if !p.match("where") {
		return nil, nil
	}
	return p.parseExpr()
}

func (p *Parser) selectItem() (SelectItem, error) {
	if p.match("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* is three tokens: a name, a dot and a star.
	if p.tok.Kind == TokIdent && !reserved(p.tok.Text) && p.peek(1).is(".") && p.peek(2).is("*") {
		item := SelectItem{TableStar: p.tok.Text}
		p.i += 2
		p.advance()
		return item, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	alias, err := p.alias()
	return SelectItem{Expr: e, Alias: alias}, err
}

func (p *Parser) orderItem() (OrderItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return OrderItem{}, err
	}
	item := OrderItem{Expr: e}
	if !p.match("asc") {
		item.Desc = p.match("desc")
	}
	return item, nil
}

// The SQL dialect: a relation reference is a table name, aliased in FROM
// lists, and the statements that name no relation are SQL's own.

func tableRef(p *Parser, from bool) (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil || !from {
		return TableRef{Table: name}, err
	}
	alias, err := p.alias()
	return TableRef{Table: name, Alias: alias}, err
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.is("select"):
		return p.parseSelect()
	case p.match("create"):
		return p.parseCreate()
	case p.match("drop"):
		if err := p.expect("table"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		return DropTable{Name: name}, err
	case p.match("begin"):
		return Begin{}, nil
	case p.match("commit"):
		return Commit{}, nil
	case p.match("rollback"):
		return Rollback{}, nil
	}
	s, refs, err := ParseStatement(p, tableRef)
	if err != nil {
		return nil, err
	}
	switch s := s.(type) {
	case Explain:
		s.Query.From = refs
		return s, nil
	case Insert:
		s.Table = refs[0].Table
		return s, nil
	case Delete:
		s.Table = refs[0].Table
		return s, nil
	}
	u := s.(Update) // the last statement ParseStatement parses
	u.Table = refs[0].Table
	return u, nil
}

// parseSelect parses a SQL SELECT: a statement's query or an EXISTS
// subquery's.
func (p *Parser) parseSelect() (Select, error) {
	g := grammar[TableRef]{Parser: p, ref: tableRef}
	sel, err := g.selectStmt()
	sel.From = g.refs
	return sel, err
}

func (p *Parser) parseCreate() (Statement, error) {
	switch {
	case p.match("table"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols, err := parens(p, p.columnDef)
		return CreateTable{Name: name, Cols: cols}, err
	case p.match("index"):
		return p.parseCreateIndex(false)
	case p.match("ordered"):
		if !p.match("index") {
			return nil, p.errf("expected INDEX after CREATE ORDERED")
		}
		return p.parseCreateIndex(true)
	}
	return nil, p.errf("expected TABLE or [ORDERED] INDEX after CREATE")
}

func typeFromName(name string) (val.Kind, bool) {
	switch strings.ToLower(name) {
	case "int", "integer", "bigint", "smallint":
		return val.KindInt, true
	case "float", "real", "double", "numeric", "decimal":
		return val.KindFloat, true
	case "text", "varchar", "char", "string":
		return val.KindString, true
	case "bool", "boolean":
		return val.KindBool, true
	default:
		return 0, false
	}
}

func (p *Parser) columnDef() (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	tname, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	kind, ok := typeFromName(tname)
	if !ok {
		return ColumnDef{}, p.errf("unknown column type %q", tname)
	}
	// Optional length suffix like VARCHAR(20).
	if p.match("(") {
		if p.tok.Kind != TokNumber {
			return ColumnDef{}, p.errf("expected length after '('")
		}
		p.advance()
		if err := p.expect(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	cd := ColumnDef{Name: name, Type: kind}
	if p.match("primary") {
		cd.PrimaryKey = true
		return cd, p.expect("key")
	}
	return cd, nil
}

func (p *Parser) parseCreateIndex(ordered bool) (Statement, error) {
	name, err := p.expectIdent()
	if err == nil {
		err = p.expect("on")
	}
	if err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cols, err := parens(p, p.expectIdent)
	return CreateIndex{Name: name, Table: table, Cols: cols, Ordered: ordered}, err
}

// Expression grammar (lowest to highest precedence):
//   orExpr   := andExpr (OR andExpr)*
//   andExpr  := notExpr (AND notExpr)*
//   notExpr  := NOT notExpr | cmpExpr
//   cmpExpr  := addExpr ((=|<>|!=|<|>|<=|>=) addExpr | IS [NOT] NULL)?
//   addExpr  := mulExpr ((+|-) mulExpr)*
//   mulExpr  := unary ((*|/) unary)*
//   unary    := - unary | primary
//   primary  := literal | funcCall | columnRef | ( orExpr )
//             | EXISTS ( select )

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error)  { return p.binary(p.parseAnd, precOr) }
func (p *Parser) parseAnd() (Expr, error) { return p.binary(p.parseNot, precAnd) }
func (p *Parser) parseAdd() (Expr, error) { return p.binary(p.parseMul, precAdd) }
func (p *Parser) parseMul() (Expr, error) { return p.binary(p.parseUnary, precMul) }

// Binary operator precedences, loosest first.
const (
	precOr = iota
	precAnd
	precCmp
	precAdd
	precMul
)

// binaryOp returns the operator of precedence prec that the current token
// spells, if it spells one.
func (p *Parser) binaryOp(prec int) (string, bool) {
	t := p.tok
	switch {
	case prec == precOr && t.is("or"):
		return "OR", true
	case prec == precAnd && t.is("and"):
		return "AND", true
	case t.Kind != TokSymbol:
		return "", false
	}
	switch t.Text {
	case "=", "<>", "<", ">", "<=", ">=":
		return t.Text, prec == precCmp
	case "!=":
		return "<>", prec == precCmp
	case "+", "-":
		return t.Text, prec == precAdd
	case "*", "/":
		return t.Text, prec == precMul
	}
	return "", false
}

// binary parses operand (op operand)* for the operators of precedence
// prec, associating to the left.
func (p *Parser) binary(operand func() (Expr, error), prec int) (Expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.binaryOp(prec)
		if !ok {
			return l, nil
		}
		p.advance()
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseNot() (Expr, error) {
	if !p.match("not") {
		return p.parseCmp()
	}
	x, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	return UnaryExpr{Op: "NOT", X: x}, nil
}

// parseCmp parses one comparison: comparisons do not chain.
func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := p.binaryOp(precCmp); ok {
		p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return BinaryExpr{Op: op, L: l, R: r}, nil
	}
	if p.match("is") {
		neg := p.match("not")
		if err := p.expect("null"); err != nil {
			return nil, err
		}
		return IsNull{X: l, Negate: neg}, nil
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if !p.match("-") {
		return p.parsePrimary()
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return UnaryExpr{Op: "-", X: x}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.tok
	switch t.Kind {
	case TokNumber:
		p.advance()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return Literal{Val: val.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return Literal{Val: val.Int(n)}, nil
	case TokString:
		p.advance()
		return Literal{Val: val.Str(t.Text)}, nil
	case TokSymbol:
		if p.match("(") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expect(")")
		}
	case TokIdent:
		switch {
		case p.match("null"):
			return Literal{Val: val.Null()}, nil
		case p.match("true"):
			return Literal{Val: val.Bool(true)}, nil
		case p.match("false"):
			return Literal{Val: val.Bool(false)}, nil
		}
		p.advance()
		if p.match("(") {
			if strings.EqualFold(t.Text, "exists") {
				return p.parseExistsBody()
			}
			return p.parseCall(t.Text)
		}
		if !p.match(".") {
			return ColumnRef{Column: t.Text}, nil
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return ColumnRef{Table: t.Text, Column: col}, nil
	}
	return nil, p.errf("unexpected token %q in expression", p.tok.Text)
}

// parseCall parses a function call's arguments after the opening
// parenthesis.
func (p *Parser) parseCall(name string) (Expr, error) {
	fc := FuncCall{Name: upperASCII(name)}
	if p.match("*") {
		fc.Star = true
	} else if !p.is(")") {
		args, err := list(p, p.parseExpr)
		if err != nil {
			return nil, err
		}
		fc.Args = args
	}
	return fc, p.expect(")")
}

// upperASCII upper-cases the ASCII letters of s and keeps every other
// byte. The lexer reads a name byte by byte, so it may hold bytes that are
// not UTF-8, which strings.ToUpper would replace with U+FFFD — a character
// no name can hold, so the rendered call would not parse back.
func upperASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// parseExistsBody parses the subquery of EXISTS ( SELECT ... ) after the
// opening parenthesis.
func (p *Parser) parseExistsBody() (Expr, error) {
	if !p.is("select") {
		return nil, p.errf("expected SELECT after EXISTS (, got %q", p.tok.Text)
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return Exists{Query: sel}, p.expect(")")
}
