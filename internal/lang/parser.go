package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseError aggregates all syntax errors found in a specification.
type ParseError struct {
	Errs []error
}

// Error joins the individual messages, one per line.
func (e *ParseError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, err := range e.Errs {
		msgs[i] = err.Error()
	}
	return strings.Join(msgs, "\n")
}

// maxParseErrors bounds error accumulation so that pathological input
// cannot blow up diagnostics.
const maxParseErrors = 20

var errTooManyErrors = errors.New("too many syntax errors")

type parser struct {
	toks []Token
	pos  int
	errs []error
}

// Parse parses a complete scheduler specification and returns its AST.
func Parse(src string) (*Program, error) {
	toks, lexErrs := Tokenize(src)
	p := &parser{toks: toks, errs: lexErrs}
	prog := &Program{Source: src}
	func() {
		defer func() {
			if r := recover(); r != nil && r != errTooManyErrors { //nolint:errorlint // sentinel identity
				panic(r)
			}
		}()
		for p.cur().Kind != EOF {
			prog.Stmts = append(prog.Stmts, p.parseStmt())
		}
	}()
	if len(p.errs) > 0 {
		return nil, &ParseError{Errs: p.errs}
	}
	return prog, nil
}

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errorf(pos Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	if len(p.errs) >= maxParseErrors {
		panic(errTooManyErrors)
	}
}

func (p *parser) expect(k Kind) Token {
	t := p.cur()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		p.sync()
		return Token{Kind: k, Pos: t.Pos}
	}
	return p.next()
}

// sync skips tokens until a statement boundary to continue parsing
// after an error.
func (p *parser) sync() {
	for {
		switch p.cur().Kind {
		case EOF, RBRACE:
			return
		case SEMICOLON:
			p.next()
			return
		}
		p.next()
	}
}

// ---- Statements ----

func (p *parser) parseStmt() Stmt {
	t := p.cur()
	switch t.Kind {
	case IF:
		return p.parseIf()
	case VAR:
		return p.parseVar()
	case FOREACH:
		return p.parseForeach()
	case SET:
		return p.parseSet()
	case GSET:
		return p.parseGSet()
	case DROP:
		return p.parseDrop()
	case RETURN:
		p.next()
		p.expect(SEMICOLON)
		return &ReturnStmt{RetPos: t.Pos}
	case LBRACE:
		return p.parseBlock()
	default:
		return p.parseExprStmt()
	}
}

func (p *parser) parseBlock() *BlockStmt {
	lb := p.expect(LBRACE)
	blk := &BlockStmt{Lbrace: lb.Pos}
	for !p.at(RBRACE) && !p.at(EOF) {
		blk.Stmts = append(blk.Stmts, p.parseStmt())
	}
	p.expect(RBRACE)
	return blk
}

func (p *parser) parseIf() Stmt {
	ifTok := p.expect(IF)
	p.expect(LPAREN)
	cond := p.parseExpr()
	p.expect(RPAREN)
	then := p.parseBlock()
	stmt := &IfStmt{IfPos: ifTok.Pos, Cond: cond, Then: then}
	if p.accept(ELSE) {
		if p.at(IF) {
			stmt.Else = p.parseIf()
		} else {
			stmt.Else = p.parseBlock()
		}
	}
	return stmt
}

func (p *parser) parseVar() Stmt {
	varTok := p.expect(VAR)
	name := p.expect(IDENT)
	p.expect(ASSIGN)
	init := p.parseExpr()
	p.expect(SEMICOLON)
	return &VarDecl{VarPos: varTok.Pos, Name: name.Lit, Init: init}
}

func (p *parser) parseForeach() Stmt {
	forTok := p.expect(FOREACH)
	p.expect(LPAREN)
	p.expect(VAR)
	name := p.expect(IDENT)
	p.expect(IN)
	iter := p.parseExpr()
	p.expect(RPAREN)
	body := p.parseBlock()
	return &ForeachStmt{ForPos: forTok.Pos, Name: name.Lit, Iter: iter, Body: body}
}

func (p *parser) parseSet() Stmt {
	setTok := p.expect(SET)
	p.expect(LPAREN)
	reg := p.expect(REG)
	idx := 0
	if len(reg.Lit) == 2 {
		idx = int(reg.Lit[1] - '1')
	}
	p.expect(COMMA)
	val := p.parseExpr()
	p.expect(RPAREN)
	p.expect(SEMICOLON)
	return &SetStmt{SetPos: setTok.Pos, Reg: idx, Value: val}
}

func (p *parser) parseGSet() Stmt {
	setTok := p.expect(GSET)
	p.expect(LPAREN)
	reg := p.expect(GREG)
	idx := 0
	if len(reg.Lit) == 2 {
		idx = int(reg.Lit[1] - '1')
	}
	p.expect(COMMA)
	val := p.parseExpr()
	p.expect(RPAREN)
	p.expect(SEMICOLON)
	return &GSetStmt{SetPos: setTok.Pos, Reg: idx, Value: val}
}

func (p *parser) parseDrop() Stmt {
	dropTok := p.expect(DROP)
	p.expect(LPAREN)
	arg := p.parseExpr()
	p.expect(RPAREN)
	p.expect(SEMICOLON)
	return &DropStmt{DropPos: dropTok.Pos, Arg: arg}
}

// parseExprStmt parses a statement that begins with an expression. The
// programming model restricts these to PUSH calls: side effects are
// only legal as PUSH operations (§3.3 of the paper).
func (p *parser) parseExprStmt() Stmt {
	startPos := p.cur().Pos
	e := p.parseExpr()
	p.expect(SEMICOLON)
	if m, ok := e.(*MemberExpr); ok && m.Name == "PUSH" && m.HasParens {
		if len(m.Args) != 1 {
			p.errorf(m.NamePos, "PUSH takes exactly one packet argument, got %d", len(m.Args))
			return &ReturnStmt{RetPos: startPos}
		}
		return &PushStmt{Target: m.Recv, Arg: m.Args[0], PushAt: m.NamePos}
	}
	p.errorf(startPos, "expression statements must be PUSH operations (side effects are restricted to PUSH)")
	return &ReturnStmt{RetPos: startPos}
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() Expr { return p.parseOr() }

func (p *parser) parseOr() Expr {
	x := p.parseAnd()
	for p.at(OR) {
		p.next()
		y := p.parseAnd()
		x = &BinaryExpr{Op: OR, X: x, Y: y}
	}
	return x
}

func (p *parser) parseAnd() Expr {
	x := p.parseEquality()
	for p.at(AND) {
		p.next()
		y := p.parseEquality()
		x = &BinaryExpr{Op: AND, X: x, Y: y}
	}
	return x
}

func (p *parser) parseEquality() Expr {
	x := p.parseRelational()
	for p.at(EQ) || p.at(NEQ) {
		op := p.next().Kind
		y := p.parseRelational()
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseRelational() Expr {
	x := p.parseAdditive()
	for p.at(LT) || p.at(LTE) || p.at(GT) || p.at(GTE) {
		op := p.next().Kind
		y := p.parseAdditive()
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseAdditive() Expr {
	x := p.parseMultiplicative()
	for p.at(PLUS) || p.at(MINUS) {
		op := p.next().Kind
		y := p.parseMultiplicative()
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseMultiplicative() Expr {
	x := p.parseUnary()
	for p.at(STAR) || p.at(SLASH) || p.at(PERCENT) {
		op := p.next().Kind
		y := p.parseUnary()
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
	return x
}

func (p *parser) parseUnary() Expr {
	t := p.cur()
	switch t.Kind {
	case NOT:
		p.next()
		return &UnaryExpr{OpPos: t.Pos, Op: NOT, X: p.parseUnary()}
	case MINUS:
		p.next()
		return &UnaryExpr{OpPos: t.Pos, Op: MINUS, X: p.parseUnary()}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for p.at(DOT) {
		p.next()
		name := p.expect(IDENT)
		m := &MemberExpr{Recv: x, Name: name.Lit, NamePos: name.Pos}
		if p.accept(LPAREN) {
			m.HasParens = true
			if !p.at(RPAREN) {
				for {
					m.Args = append(m.Args, p.parseCallArg())
					if !p.accept(COMMA) {
						break
					}
				}
			}
			p.expect(RPAREN)
		}
		x = m
	}
	return x
}

// parseCallArg parses a call argument, which may be a lambda
// `param => expr` (used by FILTER/MIN/MAX) or a regular expression.
func (p *parser) parseCallArg() Expr {
	if p.at(IDENT) && p.toks[p.pos+1].Kind == ARROW {
		param := p.next()
		p.expect(ARROW)
		body := p.parseExpr()
		return &Lambda{ParamPos: param.Pos, Param: param.Lit, Body: body}
	}
	return p.parseExpr()
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case NUMBER:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q: %v", t.Lit, err)
		}
		return &NumberLit{Pos: t.Pos, Val: v}
	case TRUE:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: true}
	case FALSE:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: false}
	case NULL:
		p.next()
		return &NullLit{Pos: t.Pos}
	case REG:
		p.next()
		return &RegExpr{Pos: t.Pos, Index: int(t.Lit[1] - '1')}
	case GREG:
		p.next()
		return &GlobalExpr{Pos: t.Pos, Index: int(t.Lit[1] - '1')}
	case IDENT:
		p.next()
		return &Ident{Pos: t.Pos, Name: t.Lit}
	case Q:
		p.next()
		return &EntityExpr{Pos: t.Pos, Kind: EntityQ}
	case QU:
		p.next()
		return &EntityExpr{Pos: t.Pos, Kind: EntityQU}
	case RQ:
		p.next()
		return &EntityExpr{Pos: t.Pos, Kind: EntityRQ}
	case SUBFLOWS:
		p.next()
		return &EntityExpr{Pos: t.Pos, Kind: EntitySubflows}
	case LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(RPAREN)
		return e
	default:
		p.errorf(t.Pos, "unexpected token %s in expression", t)
		p.next()
		return &NumberLit{Pos: t.Pos, Val: 0}
	}
}
