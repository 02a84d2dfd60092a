package pql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // = <> != < <= > >=
	tokComma
	tokLParen
	tokRParen
	tokStar
	tokPlus
	tokMinus
	tokSlash
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes PQL text. Keywords stay tokIdent; the parser matches them
// case-insensitively so column names that collide with keywords in other
// positions still work.
type lexer struct {
	input  string
	pos    int
	tokens []token
}

func lex(input string) ([]token, error) {
	// Sized once from the input: a query averages three or more bytes a
	// token, and growing the slice from nil cost more than the parse's own
	// allocations.
	l := &lexer{input: input, tokens: make([]token, 0, len(input)/3+2)}
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ',':
			l.emit(tokComma, ",")
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == '*':
			l.emit(tokStar, "*")
		case c == '+':
			l.emit(tokPlus, "+")
		case c == '/':
			l.emit(tokSlash, "/")
		case c == '=':
			l.emit(tokOp, "=")
		case c == '<':
			switch {
			case l.peek(1) == '=':
				l.emitN(tokOp, "<=", 2)
			case l.peek(1) == '>':
				l.emitN(tokOp, "<>", 2)
			default:
				l.emit(tokOp, "<")
			}
		case c == '>':
			if l.peek(1) == '=' {
				l.emitN(tokOp, ">=", 2)
			} else {
				l.emit(tokOp, ">")
			}
		case c == '!':
			if l.peek(1) == '=' {
				l.emitN(tokOp, "<>", 2)
			} else {
				return nil, newParseError(l.input, l.pos, "!", "unexpected '!'")
			}
		case c == '\'' || c == '"':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9' || c == '-' && l.peekDigit(1) && !l.afterValue():
			l.lexNumber()
		case c == '-':
			l.emit(tokMinus, "-")
		case isIdentStart(rune(c)):
			l.lexIdent()
		default:
			return nil, newParseError(l.input, l.pos, string(c), "unexpected character %q", c)
		}
	}
	l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
	return l.tokens, nil
}

func (l *lexer) peek(n int) byte {
	if l.pos+n < len(l.input) {
		return l.input[l.pos+n]
	}
	return 0
}

func (l *lexer) peekDigit(n int) bool {
	c := l.peek(n)
	return c >= '0' && c <= '9'
}

// pqlKeywords are reserved words after which a '-' starts a negative number
// literal rather than a binary minus (e.g. BETWEEN -5 AND -1).
var pqlKeywords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "or": true,
	"not": true, "in": true, "between": true, "group": true, "by": true,
	"order": true, "asc": true, "desc": true, "top": true, "limit": true,
}

// afterValue reports whether the previous token could end a value
// expression, in which case a following '-' is the binary operator
// (`a - 5`) rather than a negative-number prefix (`a = -5`).
func (l *lexer) afterValue() bool {
	if len(l.tokens) == 0 {
		return false
	}
	t := l.tokens[len(l.tokens)-1]
	switch t.kind {
	case tokNumber, tokString, tokRParen:
		return true
	case tokIdent:
		return !pqlKeywords[strings.ToLower(t.text)]
	}
	return false
}

func (l *lexer) emit(kind tokenKind, text string) { l.emitN(kind, text, 1) }

func (l *lexer) emitN(kind tokenKind, text string, n int) {
	l.tokens = append(l.tokens, token{kind: kind, text: text, pos: l.pos})
	l.pos += n
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c == quote {
			// Doubled quote is an escaped quote.
			if l.peek(1) == quote {
				sb.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return newParseError(l.input, start, string(quote), "unterminated string")
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.input[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
			(c == '-' || c == '+') && (l.input[l.pos-1] == 'e' || l.input[l.pos-1] == 'E') {
			l.pos++
			continue
		}
		break
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.input[start:l.pos], pos: start})
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' || c == '$'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.input) && isIdentPart(rune(l.input[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.input[start:l.pos], pos: start})
}
