package bsql

import (
	"errors"
	"fmt"

	"beliefdb/internal/sqlparser"
)

// ErrParse classifies every syntax failure of the BeliefSQL front end:
// errors.Is(err, ErrParse) holds for any error Parse or ParseAll returns.
// The network server maps it to the wire protocol's parse error code, so
// clients can distinguish "this statement can never succeed" from
// transient server-side failures without matching error text.
var ErrParse = errors.New("bsql: parse error")

// parseError wraps a syntax failure so it matches ErrParse while keeping
// the original message verbatim.
type parseError struct{ err error }

func (e parseError) Error() string { return e.err.Error() }

func (e parseError) Is(target error) bool { return target == ErrParse }

func (e parseError) Unwrap() error { return e.err }

func asParseErr(err error) error {
	if err == nil {
		return nil
	}
	return parseError{err}
}

// Parse parses one BeliefSQL statement (Fig. 1 grammar); empty statements
// around it (stray semicolons) are skipped, as in SQL.
func Parse(src string) (Statement, error) {
	stmt, err := sqlparser.One(src, parseStatement)
	return stmt, asParseErr(err)
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	stmts, err := sqlparser.Script(src, parseStatement)
	return stmts, asParseErr(err)
}

// parseStatement is SQL's SELECT, EXPLAIN, INSERT, DELETE and UPDATE over
// belief references, less what Fig. 1 does not have: those are refused by
// name, with the rule.
func parseStatement(p *sqlparser.Parser) (Statement, error) {
	s, refs, err := sqlparser.ParseStatement(p, parseBeliefRef)
	if err != nil {
		return nil, err
	}
	switch s := s.(type) {
	case sqlparser.Select:
		return newSelect(s, refs)
	case sqlparser.Explain:
		sel, err := newSelect(s.Query, refs)
		return Explain{Query: sel}, err
	case sqlparser.Insert:
		if s.Cols != nil {
			return nil, errors.New("bsql: INSERT names no columns in BeliefSQL (Fig. 1): a VALUES row gives every attribute of the relation, in schema order")
		}
		return Insert{Target: refs[0], Rows: s.Rows}, nil
	case sqlparser.Delete:
		return Delete{Target: refs[0], Where: s.Where}, nil
	}
	u := s.(sqlparser.Update) // the last statement ParseStatement parses
	return Update{Target: refs[0], Set: u.Set, Where: u.Where}, nil
}

func newSelect(s sqlparser.Select, from []BeliefRef) (Select, error) {
	if s.Distinct {
		return Select{}, errors.New("bsql: BeliefSQL has no SELECT DISTINCT (Fig. 1): a belief query's answer is a set already")
	}
	seen := map[string]bool{}
	for _, ref := range from {
		n := ref.Name()
		if seen[n] {
			return Select{}, fmt.Errorf("bsql: duplicate binding %q in FROM", n)
		}
		seen[n] = true
	}
	return Select{Items: s.Items, From: from, Where: s.Where, GroupBy: s.GroupBy, OrderBy: s.OrderBy, Limit: s.Limit}, nil
}

// parseBeliefRef is BeliefSQL's relation reference (Fig. 1):
// ((BELIEF user)+ not?)? relation, with an optional alias in FROM lists.
func parseBeliefRef(p *sqlparser.Parser, from bool) (BeliefRef, error) {
	var ref BeliefRef
	for p.Match("belief") {
		elem, err := parsePathElem(p)
		if err != nil {
			return ref, err
		}
		ref.Path = append(ref.Path, elem)
	}
	if ref.Negated = p.Match("not"); ref.Negated && len(ref.Path) == 0 {
		return ref, p.Errorf("'not' requires at least one BELIEF prefix (Fig. 1 grammar)")
	}
	var err error
	if ref.Table, err = p.ExpectIdent(); err != nil || !from {
		return ref, err
	}
	ref.Alias, err = p.Alias()
	return ref, err
}

// parsePathElem parses the believer after BELIEF: a string literal user
// name ('Bob'), a bare identifier user name (Bob), or a qualified column
// reference (U.uid) correlating the believer with another FROM item.
func parsePathElem(p *sqlparser.Parser) (PathElem, error) {
	tok := p.Tok()
	if tok.Kind != sqlparser.TokString && (tok.Kind != sqlparser.TokIdent || sqlparser.IsReserved(tok.Text)) {
		return PathElem{}, p.Errorf("expected user after BELIEF, got %q", tok.Text)
	}
	p.Advance()
	if tok.Kind == sqlparser.TokString || !p.Match(".") {
		return PathElem{Literal: tok.Text}, nil
	}
	col, err := p.ExpectIdent()
	return PathElem{IsRef: true, Ref: sqlparser.ColumnRef{Table: tok.Text, Column: col}}, err
}
