package sqlparser

// This file exports what a dialect's relation reference (a RefFunc) needs
// to parse itself: BeliefSQL's `(BELIEF user)+ not? relation [AS alias]` in
// internal/bsql. Every statement production is this package's own.

// Tok returns the current token.
func (p *Parser) Tok() Token { return p.tok }

// Advance consumes the current token.
func (p *Parser) Advance() { p.advance() }

// Match consumes the current token if it is the symbol or keyword s
// (keywords in any case).
func (p *Parser) Match(s string) bool { return p.match(s) }

// ExpectIdent consumes and returns an identifier.
func (p *Parser) ExpectIdent() (string, error) { return p.expectIdent() }

// Alias parses an optional `[AS] alias`; a bare alias is not a reserved
// word.
func (p *Parser) Alias() (string, error) { return p.alias() }

// Errorf builds a position-annotated parse error.
func (p *Parser) Errorf(format string, args ...interface{}) error {
	return p.errf(format, args...)
}

// IsReserved reports whether an identifier is a reserved word.
func IsReserved(ident string) bool { return reserved(ident) }
