// Package sqlparser implements the SQL subset understood by the embedded
// engine: CREATE TABLE/INDEX, DROP TABLE, INSERT, SELECT (joins, WHERE,
// correlated EXISTS subqueries, DISTINCT, GROUP BY, ORDER BY, LIMIT,
// aggregates), UPDATE, DELETE, and transaction control. BeliefSQL (the paper's SQL extension) lives in
// internal/bsql and compiles down to this dialect.
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

// Lexer splits a SQL string into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error on malformed input.
func (l *Lexer) Next() (Token, error) {
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
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		return l.lexNumber(start)
	default:
		return l.lexSymbol(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
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

func (l *Lexer) lexString(start int) (Token, error) {
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

func (l *Lexer) lexNumber(start int) (Token, error) {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) lexSymbol(start int) (Token, error) {
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

// Tokenize runs the lexer to EOF, mostly for tests.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
