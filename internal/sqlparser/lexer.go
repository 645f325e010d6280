// Package sqlparser implements the SQL subset understood by the embedded
// engine: CREATE TABLE/INDEX, DROP TABLE, INSERT, SELECT (joins, WHERE,
// correlated EXISTS subqueries, DISTINCT, GROUP BY, ORDER BY, LIMIT,
// aggregates), UPDATE, DELETE, and transaction control; numeric literals are
// digits[.digits][(e|E)[+|-]digits]. BeliefSQL (the paper's SQL extension)
// lives in internal/bsql: it parses with this package's statement grammar
// over its own relation reference, and compiles down to this dialect.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer output.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokString // single-quoted literal, unescaped payload
	TokNumber
	TokSymbol // punctuation or operator
)

// Token is one lexeme with its position (byte offset) for error messages.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// lexer splits a SQL string into tokens.
type lexer struct {
	src string
	pos int
}

// next returns the next token, or an error on malformed input.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString(start)
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start}, nil
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber(start)
	default:
		return l.lexSymbol(start)
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sql: unterminated string at offset %d", start)
}

// lexNumber reads digits[.digits][(e|E)[+|-]digits]. An e that no digit
// follows is not part of the number: `1e` stays the number 1 and the name e.
func (l *lexer) lexNumber(start int) (Token, error) {
	l.digits()
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		l.digits()
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		exp := l.pos + 1
		if exp < len(l.src) && (l.src[exp] == '+' || l.src[exp] == '-') {
			exp++
		}
		if exp < len(l.src) && isDigit(l.src[exp]) {
			l.pos = exp
			l.digits()
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *lexer) digits() {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) lexSymbol(start int) (Token, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "<=", ">=", "!=":
		l.pos += 2
		return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', ';', '.', '*', '=', '<', '>', '+', '-', '/':
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

// Tokenize lexes the whole of src, the parser's first step: a lexical error
// anywhere in the input surfaces here, before any syntax error. The result
// does not include the end-of-input token. Its slice is sized once from the
// input length: the statements the translator and the router write run at
// over three bytes a token, so only unusually dense input regrows it.
func Tokenize(src string) ([]Token, error) {
	l := lexer{src: src}
	out := make([]Token, 0, len(src)/3+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
