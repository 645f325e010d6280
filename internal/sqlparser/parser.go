package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"beliefdb/internal/val"
)

// Parser is a recursive-descent parser over the lexer's token stream.
type Parser struct {
	lex  *Lexer
	tok  Token // current token
	peek *Token
}

// NewParser returns a parser over src.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lex: NewLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse parses a single statement (newline/semicolon handling is up to the
// caller via ParseAll).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated list of statements.
func ParseAll(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for {
		for p.isSymbol(";") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.Kind == TokEOF {
			return out, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.tok.Kind != TokEOF && !p.isSymbol(";") {
			return nil, p.errf("expected ';' or end of input, got %q", p.tok.Text)
		}
	}
}

func (p *Parser) advance() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) peekTok() (Token, error) {
	if p.peek == nil {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: %s", p.tok.Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, kw)
}

func (p *Parser) isSymbol(s string) bool {
	return p.tok.Kind == TokSymbol && p.tok.Text == s
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) expectSymbol(s string) error {
	if !p.isSymbol(s) {
		return p.errf("expected %q, got %q", s, p.tok.Text)
	}
	return p.advance()
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

func (p *Parser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errf("expected identifier, got %q", p.tok.Text)
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return "", err
	}
	return name, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("select"):
		return p.parseSelect()
	case p.isKeyword("explain"):
		return p.parseExplain()
	case p.isKeyword("insert"):
		return p.parseInsert()
	case p.isKeyword("delete"):
		return p.parseDelete()
	case p.isKeyword("update"):
		return p.parseUpdate()
	case p.isKeyword("create"):
		return p.parseCreate()
	case p.isKeyword("drop"):
		return p.parseDrop()
	case p.isKeyword("begin"):
		return Begin{}, p.advance()
	case p.isKeyword("commit"):
		return Commit{}, p.advance()
	case p.isKeyword("rollback"):
		return Rollback{}, p.advance()
	default:
		return nil, p.errf("unexpected token %q at start of statement", p.tok.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.advance(); err != nil { // CREATE
		return nil, err
	}
	switch {
	case p.isKeyword("table"):
		return p.parseCreateTable()
	case p.isKeyword("index"):
		return p.parseCreateIndex(false)
	case p.isKeyword("ordered"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKeyword("index") {
			return nil, p.errf("expected INDEX after CREATE ORDERED")
		}
		return p.parseCreateIndex(true)
	default:
		return nil, p.errf("expected TABLE or [ORDERED] INDEX after CREATE")
	}
}

// parseExplain parses EXPLAIN SELECT ... — the only explainable statement.
func (p *Parser) parseExplain() (Statement, error) {
	if err := p.advance(); err != nil { // EXPLAIN
		return nil, err
	}
	if !p.isKeyword("select") {
		return nil, p.errf("expected SELECT after EXPLAIN")
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return Explain{Query: stmt.(Select)}, nil
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

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.advance(); err != nil { // TABLE
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, ok := typeFromName(tname)
		if !ok {
			return nil, p.errf("unknown column type %q", tname)
		}
		// Optional length suffix like VARCHAR(20).
		if p.isSymbol("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind != TokNumber {
				return nil, p.errf("expected length after '('")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		cd := ColumnDef{Name: cname, Type: kind}
		if p.isKeyword("primary") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			cd.PrimaryKey = true
		}
		cols = append(cols, cd)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return CreateTable{Name: name, Cols: cols}, nil
}

func (p *Parser) parseCreateIndex(ordered bool) (Statement, error) {
	if err := p.advance(); err != nil { // INDEX
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return CreateIndex{Name: name, Table: table, Cols: cols, Ordered: ordered}, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.advance(); err != nil { // DROP
		return nil, err
	}
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return DropTable{Name: name}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.advance(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.isSymbol("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return Insert{Table: table, Cols: cols, Rows: rows}, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	if err := p.advance(); err != nil { // SELECT
		return nil, err
	}
	sel := Select{Limit: -1}
	if p.isKeyword("distinct") {
		sel.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.isKeyword("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.isKeyword("asc") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("desc") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		n, err := strconv.Atoi(p.tok.Text)
		if err != nil {
			return nil, p.errf("bad LIMIT value %q", p.tok.Text)
		}
		sel.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.isSymbol("*") {
		return SelectItem{Star: true}, p.advance()
	}
	// t.* form: identifier '.' '*'
	if p.tok.Kind == TokIdent && !reservedWords[strings.ToLower(p.tok.Text)] {
		next, err := p.peekTok()
		if err != nil {
			return SelectItem{}, err
		}
		if next.Kind == TokSymbol && next.Text == "." {
			// Look two ahead is awkward with a single peek; parse the
			// qualified form and check for '*'.
			name := p.tok.Text
			if err := p.advance(); err != nil { // ident
				return SelectItem{}, err
			}
			if err := p.advance(); err != nil { // '.'
				return SelectItem{}, err
			}
			if p.isSymbol("*") {
				return SelectItem{TableStar: name}, p.advance()
			}
			col, err := p.expectIdent()
			if err != nil {
				return SelectItem{}, err
			}
			expr, err := p.continueExpr(ColumnRef{Table: name, Column: col})
			if err != nil {
				return SelectItem{}, err
			}
			return p.finishSelectItem(expr)
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return p.finishSelectItem(e)
}

func (p *Parser) finishSelectItem(e Expr) (SelectItem, error) {
	item := SelectItem{Expr: e}
	if p.isKeyword("as") {
		if err := p.advance(); err != nil {
			return item, err
		}
		a, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if p.tok.Kind == TokIdent && !reservedWords[strings.ToLower(p.tok.Text)] {
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return item, err
		}
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.isKeyword("as") {
		if err := p.advance(); err != nil {
			return ref, err
		}
		a, err := p.expectIdent()
		if err != nil {
			return ref, err
		}
		ref.Alias = a
	} else if p.tok.Kind == TokIdent && !reservedWords[strings.ToLower(p.tok.Text)] {
		ref.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return ref, err
		}
	}
	return ref, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := Delete{Table: table}
	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.advance(); err != nil { // UPDATE
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	u := Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: e})
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
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

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return p.parseCmpRest(l)
}

func (p *Parser) parseCmpRest(l Expr) (Expr, error) {
	if p.tok.Kind == TokSymbol {
		switch p.tok.Text {
		case "=", "<>", "!=", "<", ">", "<=", ">=":
			op := p.tok.Text
			if op == "!=" {
				op = "<>"
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	if p.isKeyword("is") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if p.isKeyword("not") {
			neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return IsNull{X: l, Negate: neg}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokSymbol && (p.tok.Text == "+" || p.tok.Text == "-") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokSymbol && (p.tok.Text == "*" || p.tok.Text == "/") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.isSymbol("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TokNumber:
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", text)
			}
			return Literal{Val: val.Float(f)}, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", text)
		}
		return Literal{Val: val.Int(n)}, nil
	case TokString:
		s := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Literal{Val: val.Str(s)}, nil
	case TokSymbol:
		if p.tok.Text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		switch strings.ToLower(p.tok.Text) {
		case "null":
			return Literal{Val: val.Null()}, p.advance()
		case "true":
			return Literal{Val: val.Bool(true)}, p.advance()
		case "false":
			return Literal{Val: val.Bool(false)}, p.advance()
		}
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isSymbol("(") { // function call
			if err := p.advance(); err != nil {
				return nil, err
			}
			if strings.EqualFold(name, "exists") {
				return p.parseExistsBody()
			}
			fc := FuncCall{Name: strings.ToUpper(name)}
			if p.isSymbol("*") {
				fc.Star = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if !p.isSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.isSymbol(",") {
						if err := p.advance(); err != nil {
							return nil, err
						}
						continue
					}
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.isSymbol(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return ColumnRef{Table: name, Column: col}, nil
		}
		return ColumnRef{Column: name}, nil
	}
	return nil, p.errf("unexpected token %q in expression", p.tok.Text)
}

// parseExistsBody parses the subquery of EXISTS ( SELECT ... ) after the
// opening parenthesis.
func (p *Parser) parseExistsBody() (Expr, error) {
	if !p.isKeyword("select") {
		return nil, p.errf("expected SELECT after EXISTS (, got %q", p.tok.Text)
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return Exists{Query: stmt.(Select)}, nil
}

// continueExpr resumes expression parsing after a primary has already been
// consumed (used by SELECT item parsing for qualified names). It applies the
// binary-operator tail productions to the given left operand.
func (p *Parser) continueExpr(left Expr) (Expr, error) {
	l := left
	// mul tail
	for p.tok.Kind == TokSymbol && (p.tok.Text == "*" || p.tok.Text == "/") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	// add tail
	for p.tok.Kind == TokSymbol && (p.tok.Text == "+" || p.tok.Text == "-") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	// cmp / IS NULL tail
	l, err := p.parseCmpRest(l)
	if err != nil {
		return nil, err
	}
	// and tail
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "AND", L: l, R: r}
	}
	// or tail
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}
