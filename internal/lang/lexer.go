package lang

import (
	"fmt"
)

// Lexer turns ProgMP scheduler source text into a token stream.
// Comments use the C style: // to end of line and /* ... */.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	errs []error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errs returns lexical errors accumulated so far.
func (l *Lexer) Errs() []error { return l.errs }

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isRegisterName reports whether lit spells a register R1..R8.
func isRegisterName(lit string) bool {
	if len(lit) != 2 || lit[0] != 'R' {
		return false
	}
	return lit[1] >= '1' && lit[1] <= '8'
}

// isGlobalRegisterName reports whether lit spells a shared global
// register G1..G8.
func isGlobalRegisterName(lit string) bool {
	if len(lit) != 2 || lit[0] != 'G' {
		return false
	}
	return lit[1] >= '1' && lit[1] <= '8'
}

// Next scans and returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}
	}
	c := l.advance()
	switch {
	case isLetter(c):
		start := l.off - 1
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		if isRegisterName(lit) {
			return Token{Kind: REG, Lit: lit, Pos: p}
		}
		if isGlobalRegisterName(lit) {
			return Token{Kind: GREG, Lit: lit, Pos: p}
		}
		if k, ok := keywords[lit]; ok {
			if k == NOT {
				return Token{Kind: NOT, Lit: lit, Pos: p}
			}
			return Token{Kind: k, Lit: lit, Pos: p}
		}
		return Token{Kind: IDENT, Lit: lit, Pos: p}
	case isDigit(c):
		start := l.off - 1
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		return Token{Kind: NUMBER, Lit: l.src[start:l.off], Pos: p}
	}
	switch c {
	case '(':
		return Token{Kind: LPAREN, Pos: p}
	case ')':
		return Token{Kind: RPAREN, Pos: p}
	case '{':
		return Token{Kind: LBRACE, Pos: p}
	case '}':
		return Token{Kind: RBRACE, Pos: p}
	case ',':
		return Token{Kind: COMMA, Pos: p}
	case ';':
		return Token{Kind: SEMICOLON, Pos: p}
	case '.':
		return Token{Kind: DOT, Pos: p}
	case '+':
		return Token{Kind: PLUS, Pos: p}
	case '-':
		return Token{Kind: MINUS, Pos: p}
	case '*':
		return Token{Kind: STAR, Pos: p}
	case '/':
		return Token{Kind: SLASH, Pos: p}
	case '%':
		return Token{Kind: PERCENT, Pos: p}
	case '=':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: EQ, Pos: p}
		}
		if l.peek() == '>' {
			l.advance()
			return Token{Kind: ARROW, Pos: p}
		}
		return Token{Kind: ASSIGN, Pos: p}
	case '!':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: NEQ, Pos: p}
		}
		return Token{Kind: NOT, Pos: p}
	case '<':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: LTE, Pos: p}
		}
		return Token{Kind: LT, Pos: p}
	case '>':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: GTE, Pos: p}
		}
		return Token{Kind: GT, Pos: p}
	case '&':
		if l.peek() == '&' {
			l.advance()
			return Token{Kind: AND, Pos: p}
		}
	case '|':
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: OR, Pos: p}
		}
	}
	l.errorf(p, "illegal character %q", string(c))
	return Token{Kind: ILLEGAL, Lit: string(c), Pos: p}
}

// Tokenize scans the entire input and returns all tokens up to and
// including EOF, along with any lexical errors.
func Tokenize(src string) ([]Token, []error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, l.Errs()
}
