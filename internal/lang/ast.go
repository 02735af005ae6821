package lang

import (
	"fmt"
	"strings"
)

// Node is implemented by all AST nodes.
type Node interface {
	Position() Pos
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Program is the root node: a sequence of statements executed per
// scheduler invocation.
type Program struct {
	Stmts []Stmt
	// Source is the original specification text, retained for
	// diagnostics and size accounting.
	Source string
}

// Position returns the position of the first statement (or 1:1).
func (p *Program) Position() Pos {
	if len(p.Stmts) > 0 {
		return p.Stmts[0].Position()
	}
	return Pos{Line: 1, Col: 1}
}

// ---- Statements ----

// BlockStmt is a braced statement list.
type BlockStmt struct {
	Lbrace Pos
	Stmts  []Stmt
}

// IfStmt is IF (Cond) { Then } ELSE { Else } with optional else.
type IfStmt struct {
	IfPos Pos
	Cond  Expr
	Then  *BlockStmt
	Else  Stmt // *BlockStmt, *IfStmt, or nil
}

// VarDecl is VAR name = init; — single assignment, implicit typing.
type VarDecl struct {
	VarPos Pos
	Name   string
	Init   Expr
}

// ForeachStmt is FOREACH (VAR name IN iter) { body }.
type ForeachStmt struct {
	ForPos Pos
	Name   string
	Iter   Expr
	Body   *BlockStmt
}

// SetStmt is SET(Rn, value); — the only mutation of register state.
type SetStmt struct {
	SetPos Pos
	Reg    int // 0-based register index
	Value  Expr
}

// GSetStmt is GSET(Gn, value); — writes a global register shared with
// every connection attached to the same cross-connection state store.
type GSetStmt struct {
	SetPos Pos
	Reg    int // 0-based global register index
	Value  Expr
}

// PushStmt is target.PUSH(arg); — the only packet-moving side effect.
type PushStmt struct {
	Target Expr // subflow-typed
	Arg    Expr // packet-typed
	PushAt Pos
}

// DropStmt is DROP(arg); — discards a packet popped from a queue.
type DropStmt struct {
	DropPos Pos
	Arg     Expr
}

// ReturnStmt terminates the current scheduler execution.
type ReturnStmt struct {
	RetPos Pos
}

func (s *BlockStmt) Position() Pos   { return s.Lbrace }
func (s *IfStmt) Position() Pos      { return s.IfPos }
func (s *VarDecl) Position() Pos     { return s.VarPos }
func (s *ForeachStmt) Position() Pos { return s.ForPos }
func (s *SetStmt) Position() Pos     { return s.SetPos }
func (s *GSetStmt) Position() Pos    { return s.SetPos }
func (s *PushStmt) Position() Pos    { return s.PushAt }
func (s *DropStmt) Position() Pos    { return s.DropPos }
func (s *ReturnStmt) Position() Pos  { return s.RetPos }

func (*BlockStmt) stmtNode()   {}
func (*IfStmt) stmtNode()      {}
func (*VarDecl) stmtNode()     {}
func (*ForeachStmt) stmtNode() {}
func (*SetStmt) stmtNode()     {}
func (*GSetStmt) stmtNode()    {}
func (*PushStmt) stmtNode()    {}
func (*DropStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()  {}

// ---- Expressions ----

// NumberLit is an integer literal.
type NumberLit struct {
	Pos Pos
	Val int64
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Pos Pos
	Val bool
}

// NullLit is NULL, inhabiting packet and subflow types.
type NullLit struct {
	Pos Pos
}

// RegExpr reads register Rn (0-based Index).
type RegExpr struct {
	Pos   Pos
	Index int
}

// GlobalExpr reads shared global register Gn (0-based Index).
type GlobalExpr struct {
	Pos   Pos
	Index int
}

// Ident references a VAR or lambda parameter.
type Ident struct {
	Pos  Pos
	Name string
}

// EntityKind identifies the built-in scheduler environment entities.
type EntityKind int

// Built-in entities of the scheduling environment model.
const (
	EntityQ EntityKind = iota
	EntityQU
	EntityRQ
	EntitySubflows
)

// String names the entity as spelled in source.
func (k EntityKind) String() string {
	switch k {
	case EntityQ:
		return "Q"
	case EntityQU:
		return "QU"
	case EntityRQ:
		return "RQ"
	case EntitySubflows:
		return "SUBFLOWS"
	}
	return fmt.Sprintf("EntityKind(%d)", int(k))
}

// EntityExpr references Q, QU, RQ or SUBFLOWS.
type EntityExpr struct {
	Pos  Pos
	Kind EntityKind
}

// UnaryExpr is !x or -x.
type UnaryExpr struct {
	OpPos Pos
	Op    Kind // NOT or MINUS
	X     Expr
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   Kind // PLUS..GTE, AND, OR
	X, Y Expr
}

// Lambda is a one-parameter anonymous predicate: param => body.
type Lambda struct {
	ParamPos Pos
	Param    string
	Body     Expr
}

// MemberExpr is a property access or method call: recv.Name or
// recv.Name(args). FILTER/MIN/MAX take a single Lambda argument.
type MemberExpr struct {
	Recv    Expr
	Name    string
	NamePos Pos
	Args    []Expr
	// HasParens distinguishes `.POP()` from `.TOP`.
	HasParens bool
}

func (e *NumberLit) Position() Pos  { return e.Pos }
func (e *BoolLit) Position() Pos    { return e.Pos }
func (e *NullLit) Position() Pos    { return e.Pos }
func (e *RegExpr) Position() Pos    { return e.Pos }
func (e *GlobalExpr) Position() Pos { return e.Pos }
func (e *Ident) Position() Pos      { return e.Pos }
func (e *EntityExpr) Position() Pos { return e.Pos }
func (e *UnaryExpr) Position() Pos  { return e.OpPos }
func (e *BinaryExpr) Position() Pos { return e.X.Position() }
func (e *Lambda) Position() Pos     { return e.ParamPos }

//progmp:hotpath
//progmp:deterministic
func (e *MemberExpr) Position() Pos { return e.NamePos }

func (*NumberLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*NullLit) exprNode()    {}
func (*RegExpr) exprNode()    {}
func (*GlobalExpr) exprNode() {}
func (*Ident) exprNode()      {}
func (*EntityExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*Lambda) exprNode()     {}
func (*MemberExpr) exprNode() {}

// ---- Printing ----

// Format renders the program as canonical source text. The output
// re-parses to an equivalent AST, which the tests rely on.
func (p *Program) Format() string {
	var b strings.Builder
	for _, s := range p.Stmts {
		formatStmt(&b, s, 0)
	}
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func formatStmt(b *strings.Builder, s Stmt, depth int) {
	switch s := s.(type) {
	case *BlockStmt:
		indent(b, depth)
		b.WriteString("{\n")
		for _, inner := range s.Stmts {
			formatStmt(b, inner, depth+1)
		}
		indent(b, depth)
		b.WriteString("}\n")
	case *IfStmt:
		indent(b, depth)
		b.WriteString("IF (")
		b.WriteString(FormatExpr(s.Cond))
		b.WriteString(") {\n")
		for _, inner := range s.Then.Stmts {
			formatStmt(b, inner, depth+1)
		}
		indent(b, depth)
		b.WriteString("}")
		switch e := s.Else.(type) {
		case nil:
			b.WriteString("\n")
		case *BlockStmt:
			b.WriteString(" ELSE {\n")
			for _, inner := range e.Stmts {
				formatStmt(b, inner, depth+1)
			}
			indent(b, depth)
			b.WriteString("}\n")
		case *IfStmt:
			b.WriteString(" ELSE ")
			var sub strings.Builder
			formatStmt(&sub, e, depth)
			b.WriteString(strings.TrimLeft(sub.String(), " "))
		}
	case *VarDecl:
		indent(b, depth)
		fmt.Fprintf(b, "VAR %s = %s;\n", s.Name, FormatExpr(s.Init))
	case *ForeachStmt:
		indent(b, depth)
		fmt.Fprintf(b, "FOREACH (VAR %s IN %s) {\n", s.Name, FormatExpr(s.Iter))
		for _, inner := range s.Body.Stmts {
			formatStmt(b, inner, depth+1)
		}
		indent(b, depth)
		b.WriteString("}\n")
	case *SetStmt:
		indent(b, depth)
		fmt.Fprintf(b, "SET(R%d, %s);\n", s.Reg+1, FormatExpr(s.Value))
	case *GSetStmt:
		indent(b, depth)
		fmt.Fprintf(b, "GSET(G%d, %s);\n", s.Reg+1, FormatExpr(s.Value))
	case *PushStmt:
		indent(b, depth)
		fmt.Fprintf(b, "%s.PUSH(%s);\n", FormatExpr(s.Target), FormatExpr(s.Arg))
	case *DropStmt:
		indent(b, depth)
		fmt.Fprintf(b, "DROP(%s);\n", FormatExpr(s.Arg))
	case *ReturnStmt:
		indent(b, depth)
		b.WriteString("RETURN;\n")
	}
}

// FormatExpr renders an expression as source text (fully parenthesized
// for binary operations, so precedence never needs reconstructing).
//
//progmp:deterministic
func FormatExpr(e Expr) string {
	switch e := e.(type) {
	case *NumberLit:
		return fmt.Sprintf("%d", e.Val)
	case *BoolLit:
		if e.Val {
			return "TRUE"
		}
		return "FALSE"
	case *NullLit:
		return "NULL"
	case *RegExpr:
		return fmt.Sprintf("R%d", e.Index+1)
	case *GlobalExpr:
		return fmt.Sprintf("G%d", e.Index+1)
	case *Ident:
		return e.Name
	case *EntityExpr:
		return e.Kind.String()
	case *UnaryExpr:
		if e.Op == NOT {
			return "!" + FormatExpr(e.X)
		}
		return "-" + FormatExpr(e.X)
	case *BinaryExpr:
		return "(" + FormatExpr(e.X) + " " + e.Op.String() + " " + FormatExpr(e.Y) + ")"
	case *Lambda:
		return e.Param + " => " + FormatExpr(e.Body)
	case *MemberExpr:
		recv := FormatExpr(e.Recv)
		if !e.HasParens {
			return recv + "." + e.Name
		}
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = FormatExpr(a)
		}
		return recv + "." + e.Name + "(" + strings.Join(args, ", ") + ")"
	}
	return fmt.Sprintf("<unknown expr %T>", e)
}
