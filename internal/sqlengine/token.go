// Package sqlengine implements the from-scratch SQL engine that plays the
// role DuckDB plays in the paper's Materializer: a lexer, recursive-descent
// parser, expression evaluator and tree-walking executor over the in-memory
// tables of internal/table.
//
// The dialect covers what data preparation needs: SELECT with DISTINCT,
// INNER/LEFT/CROSS JOIN, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET,
// UNION ALL, subqueries in FROM, CASE, CAST, BETWEEN, IN, LIKE, IS NULL, the
// scalar functions of one package-level table (funcs.go; a new operator is
// one more entry there) and COUNT/SUM/AVG/MIN/MAX/MEDIAN/STDDEV aggregates
// (with DISTINCT). Errors carry positions and are phrased so the
// Materializer's repair loop can react to them, mirroring the paper's
// "tool analyzes these errors and provides feedback" behaviour.
//
// The executor never writes a source table: a relation is a list of tuples
// of int32 row numbers, one per joined table, that scans, WHERE and joins
// move, and a column reference reads its table's vector at its row number.
// The select list alone writes cells, through one column builder per item;
// ORDER BY, DISTINCT, OFFSET and LIMIT then pick the output's rows by
// number, and a pick other than all of them in order is gathered into an
// exact table of its own. A hash join matches
// keys as = compares them: numbers and numeric strings by float64 value,
// kinds = relates by a rule no key expresses (a time against a string or a
// number, a bool) pair by pair.
package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // operators and punctuation
)

// token is one lexical token with its source position (1-based column).
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords is the reserved-word set. Identifiers matching these (case-
// insensitively) lex as keywords.
var keywords = map[string]struct{}{
	"SELECT": {}, "FROM": {}, "WHERE": {}, "GROUP": {}, "BY": {}, "HAVING": {},
	"ORDER": {}, "LIMIT": {}, "OFFSET": {}, "AS": {}, "AND": {}, "OR": {},
	"NOT": {}, "NULL": {}, "TRUE": {}, "FALSE": {}, "JOIN": {}, "INNER": {},
	"LEFT": {}, "RIGHT": {}, "CROSS": {}, "OUTER": {}, "ON": {}, "ASC": {},
	"DESC": {}, "DISTINCT": {}, "BETWEEN": {}, "IN": {}, "LIKE": {}, "IS": {},
	"CASE": {}, "WHEN": {}, "THEN": {}, "ELSE": {}, "END": {}, "CAST": {},
	"UNION": {}, "ALL": {}, "USING": {},
}

// lexer turns SQL text into tokens.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex tokenizes src, returning a token slice ending with tokEOF.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos + 1})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent()
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexQuotedIdent(); err != nil {
				return nil, err
			}
		default:
			if !l.lexSymbol() {
				return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, start+1)
			}
		}
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

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if _, ok := keywords[upper]; ok {
		l.tokens = append(l.tokens, token{kind: tokKeyword, text: upper, pos: start + 1})
		return
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: text, pos: start + 1})
}

func (l *lexer) lexQuotedIdent() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' { // escaped quote
				b.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokIdent, text: b.String(), pos: start + 1})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated quoted identifier at position %d", start+1)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsDigit(rune(c)):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if strings.HasSuffix(text, "e") || strings.HasSuffix(text, "E") ||
		strings.HasSuffix(text, "+") || strings.HasSuffix(text, "-") {
		return fmt.Errorf("sql: malformed number %q at position %d", text, start+1)
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: text, pos: start + 1})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start + 1})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at position %d", start+1)
}

// twoCharSymbols are matched before single characters.
var twoCharSymbols = []string{"<=", ">=", "<>", "!=", "||"}

func (l *lexer) lexSymbol() bool {
	rest := l.src[l.pos:]
	for _, s := range twoCharSymbols {
		if strings.HasPrefix(rest, s) {
			l.tokens = append(l.tokens, token{kind: tokSymbol, text: s, pos: l.pos + 1})
			l.pos += len(s)
			return true
		}
	}
	switch rest[0] {
	case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', '.', ';':
		l.tokens = append(l.tokens, token{kind: tokSymbol, text: rest[:1], pos: l.pos + 1})
		l.pos++
		return true
	}
	return false
}
