package query

import (
	"strconv"
	"strings"
	"unicode"
)

// lexer converts query source text into tokens. Keywords are
// case-insensitive; identifiers keep their case (context types are
// camelCase in the vocabulary).
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// lex tokenizes the whole input. The token slice is presized from the
// source length: a query averages well over four bytes per token (keywords,
// identifiers and the spaces between them), so one allocation usually
// holds every token plus EOF.
func (l *lexer) lex() ([]token, error) {
	toks := make([]token, 0, len(l.src)/4+2)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '*':
		l.pos++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case c == '!':
		if l.peekAt(1) == '=' {
			l.pos += 2
			return token{kind: tokNe, text: "!=", pos: start}, nil
		}
		return token{}, syntaxErrf(start, string(c), "unexpected character")
	case c == '<':
		switch l.peekAt(1) {
		case '=':
			l.pos += 2
			return token{kind: tokLe, text: "<=", pos: start}, nil
		case '>':
			l.pos += 2
			return token{kind: tokNe, text: "<>", pos: start}, nil
		default:
			l.pos++
			return token{kind: tokLt, text: "<", pos: start}, nil
		}
	case c == '>':
		if l.peekAt(1) == '=' {
			l.pos += 2
			return token{kind: tokGe, text: ">=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokGt, text: ">", pos: start}, nil
	case c == '"' || c == '\'':
		return l.lexString(c)
	case c >= '0' && c <= '9' || c == '.' || c == '-' && isDigit(l.peekAt(1)):
		return l.lexNumber()
	case isIdentStart(rune(c)):
		return l.lexIdent()
	default:
		return token{}, syntaxErrf(start, string(c), "unexpected character")
	}
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		return
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == '/' || r == ':'
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && isDigit(l.peekAt(1)) {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, syntaxErrf(start, text, "bad number: %v", err)
	}
	return token{kind: tokNumber, text: text, num: n, pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, syntaxErrf(start, l.src[start:], "unterminated string")
}
