// Package types implements the static type system of the ProgMP
// scheduler language (Table 1 of the paper): implicit typing from the
// initial assignment, single-assignment variables, a fixed set of types
// (int, bool, packet, subflow, subflow list, packet queue), and the
// restriction of side effects to PUSH/POP/DROP/SET statement positions.
package types

import (
	"fmt"

	"progmp/internal/lang"
	"progmp/internal/runtime"
)

// Type is a language-level type.
type Type int

// The language types.
const (
	Invalid Type = iota
	Int
	Bool
	Packet
	Subflow
	SubflowList
	PacketQueue
)

var typeNames = [...]string{
	Invalid:     "invalid",
	Int:         "int",
	Bool:        "bool",
	Packet:      "packet",
	Subflow:     "subflow",
	SubflowList: "subflowList",
	PacketQueue: "packetQueue",
}

// String returns the type's name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Symbol describes a declared name: a VAR, a FOREACH loop variable, or
// a lambda parameter. Each symbol owns a distinct frame slot.
type Symbol struct {
	Name    string
	Type    Type
	Slot    int
	DeclPos lang.Pos
}

// MemberKind classifies a resolved member access or call.
type MemberKind int

// Resolved member kinds.
const (
	MemberInvalid      MemberKind = iota
	MemberSbfInt                  // subflow integer property
	MemberSbfBool                 // subflow boolean property
	MemberHasWindowFor            // sbf.HAS_WINDOW_FOR(pkt) -> bool
	MemberPktInt                  // packet integer property
	MemberSentOn                  // pkt.SENT_ON(sbf) -> bool
	MemberFilter                  // list.FILTER(x => bool) -> list
	MemberMin                     // list.MIN(x => int) -> element
	MemberMax                     // list.MAX(x => int) -> element
	MemberTop                     // queue.TOP -> packet (alias FIRST)
	MemberPop                     // queue.POP() -> packet (effectful)
	MemberEmpty                   // list/queue.EMPTY -> bool
	MemberCount                   // list/queue.COUNT -> int
	MemberGet                     // subflowList.GET(int) -> subflow
	MemberBytes                   // queue.BYTES -> int (sum of visible packet sizes)
)

// Member is the checker's resolution of one MemberExpr, consumed by all
// back-ends so name resolution happens exactly once.
type Member struct {
	Kind    MemberKind
	SbfInt  runtime.SubflowIntProp
	SbfBool runtime.SubflowBoolProp
	PktInt  runtime.PacketIntProp
	// RecvType is the receiver's type; for MemberFilter/Min/Max it
	// determines the element type of the lambda parameter.
	RecvType Type
	Result   Type
	// Scan is set on every member that walks a packet queue (TOP/FIRST,
	// POP, BYTES, and EMPTY/COUNT/MIN/MAX on a queue receiver): what the
	// receiver denotes. Back-ends scan it; none evaluates a queue-typed
	// expression.
	Scan *Scan
}

// Scan is the one meaning of a queue-typed expression: a base queue and
// the FILTER lambdas applied to it, outermost last. A queue variable is
// an alias for its chain — single assignment and pure predicates make
// running them when the queue is scanned, not when it is named,
// indistinguishable.
type Scan struct {
	Queue   runtime.QueueID
	Filters []*lang.Lambda
	// NotSentOn is x when a filter of the chain is !p.SENT_ON(x) with x
	// an identifier bound outside the lambda, else nil. Every packet of
	// the base queue's leading run sent on x fails the scan, so a
	// back-end may start the scan past that run
	// (runtime.Queue.SkipSent): predicates are pure, so the skipped
	// evaluations have no effect to miss.
	NotSentOn *lang.Ident
}

// ElemType returns the element type of a collection type.
func ElemType(t Type) Type {
	switch t {
	case SubflowList:
		return Subflow
	case PacketQueue:
		return Packet
	}
	return Invalid
}

// Info is the result of checking a program: expression types, symbol
// definitions and uses, resolved members, and frame layout.
type Info struct {
	Prog      *lang.Program
	ExprTypes map[lang.Expr]Type
	// Defs maps declaring nodes (*lang.VarDecl, *lang.ForeachStmt,
	// *lang.Lambda) to their symbol.
	Defs map[lang.Node]*Symbol
	// Uses maps identifier references to their symbol.
	Uses map[*lang.Ident]*Symbol
	// Members maps member expressions to their resolution.
	Members map[*lang.MemberExpr]*Member
	// NumSlots is the number of frame slots needed for variables.
	NumSlots int
}

// TypeOf returns the checked type of e (Invalid if unknown).
//
//progmp:hotpath
//progmp:deterministic
func (info *Info) TypeOf(e lang.Expr) Type { return info.ExprTypes[e] }

// CheckError aggregates type errors with positions.
type CheckError struct {
	Errs []error
}

// Error joins the messages, one per line.
func (e *CheckError) Error() string {
	s := ""
	for i, err := range e.Errs {
		if i > 0 {
			s += "\n"
		}
		s += err.Error()
	}
	return s
}

type checker struct {
	info   *Info
	errs   []error
	scopes []map[string]*Symbol
	nSlots int
	// chains holds the Scan each queue-typed variable stands for.
	chains map[*Symbol]*Scan
}

// Check type-checks prog and returns the analysis results.
func Check(prog *lang.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:      prog,
			ExprTypes: make(map[lang.Expr]Type),
			Defs:      make(map[lang.Node]*Symbol),
			Uses:      make(map[*lang.Ident]*Symbol),
			Members:   make(map[*lang.MemberExpr]*Member),
		},
		chains: make(map[*Symbol]*Scan),
	}
	c.pushScope()
	for _, s := range prog.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
	c.info.NumSlots = c.nSlots
	if len(c.errs) > 0 {
		return nil, &CheckError{Errs: c.errs}
	}
	return c.info, nil
}

func (c *checker) errorf(pos lang.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) pushScope() {
	c.scopes = append(c.scopes, make(map[string]*Symbol))
}

func (c *checker) popScope() {
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if sym, ok := c.scopes[i][name]; ok {
			return sym
		}
	}
	return nil
}

// declare introduces a new symbol, enforcing the single-assignment form:
// a name may be declared at most once in any enclosing scope (no
// shadowing, no redeclaration).
func (c *checker) declare(node lang.Node, name string, t Type, pos lang.Pos) *Symbol {
	if prev := c.lookup(name); prev != nil {
		c.errorf(pos, "%s redeclared (single-assignment form; previously declared at %s)", name, prev.DeclPos)
	}
	sym := &Symbol{Name: name, Type: t, Slot: c.nSlots, DeclPos: pos}
	c.nSlots++
	c.scopes[len(c.scopes)-1][name] = sym
	c.info.Defs[node] = sym
	return sym
}

// ---- Statements ----

func (c *checker) checkStmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		c.pushScope()
		for _, inner := range s.Stmts {
			c.checkStmt(inner)
		}
		c.popScope()
	case *lang.IfStmt:
		t := c.checkExpr(s.Cond, false)
		if t != Bool && t != Invalid {
			c.errorf(s.Cond.Position(), "IF condition must be bool, got %s", t)
		}
		c.pushScope()
		for _, inner := range s.Then.Stmts {
			c.checkStmt(inner)
		}
		c.popScope()
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *lang.VarDecl:
		t := c.checkExpr(s.Init, true)
		if t == Invalid {
			t = Int // limit error cascades
		}
		sym := c.declare(s, s.Name, t, s.VarPos)
		if t == PacketQueue {
			c.chains[sym] = c.scanOf(s.Init)
		}
	case *lang.ForeachStmt:
		t := c.checkExpr(s.Iter, false)
		if t != SubflowList && t != Invalid {
			c.errorf(s.Iter.Position(), "FOREACH iterates subflow lists, got %s", t)
		}
		c.pushScope()
		c.declare(s, s.Name, Subflow, s.ForPos)
		for _, inner := range s.Body.Stmts {
			c.checkStmt(inner)
		}
		c.popScope()
	case *lang.SetStmt:
		if s.Reg < 0 || s.Reg >= runtime.NumRegisters {
			c.errorf(s.SetPos, "register index out of range")
		}
		t := c.checkExpr(s.Value, false)
		if t != Int && t != Invalid {
			c.errorf(s.Value.Position(), "SET value must be int, got %s", t)
		}
	case *lang.GSetStmt:
		if s.Reg < 0 || s.Reg >= runtime.NumGlobals {
			c.errorf(s.SetPos, "global register index out of range")
		}
		t := c.checkExpr(s.Value, false)
		if t != Int && t != Invalid {
			c.errorf(s.Value.Position(), "GSET value must be int, got %s", t)
		}
	case *lang.PushStmt:
		tt := c.checkExpr(s.Target, false)
		if tt != Subflow && tt != Invalid {
			c.errorf(s.Target.Position(), "PUSH target must be a subflow, got %s", tt)
		}
		ta := c.checkExpr(s.Arg, true)
		if ta != Packet && ta != Invalid {
			c.errorf(s.Arg.Position(), "PUSH argument must be a packet, got %s", ta)
		}
	case *lang.DropStmt:
		t := c.checkExpr(s.Arg, true)
		if t != Packet && t != Invalid {
			c.errorf(s.Arg.Position(), "DROP argument must be a packet, got %s", t)
		}
	case *lang.ReturnStmt:
		// No operands.
	}
}

// ---- Expressions ----

// checkExpr types e. effectRoot is true only when e is the entire
// expression in a side-effect-permitted position (VAR initializer, PUSH
// argument, DROP argument); POP is legal only there, which statically
// rules out accidental packet removal inside predicates (§3.3).
func (c *checker) checkExpr(e lang.Expr, effectRoot bool) Type {
	t := c.typeExpr(e, effectRoot)
	c.info.ExprTypes[e] = t
	return t
}

func (c *checker) typeExpr(e lang.Expr, effectRoot bool) Type {
	switch e := e.(type) {
	case *lang.NumberLit:
		return Int
	case *lang.BoolLit:
		return Bool
	case *lang.NullLit:
		// Bare NULL outside an equality comparison has no type; the
		// comparison case is handled in BinaryExpr below.
		c.errorf(e.Pos, "NULL may only appear in == or != comparisons with packets or subflows")
		return Invalid
	case *lang.RegExpr, *lang.GlobalExpr:
		return Int
	case *lang.Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			c.errorf(e.Pos, "undeclared identifier %s", e.Name)
			return Invalid
		}
		c.info.Uses[e] = sym
		return sym.Type
	case *lang.EntityExpr:
		if e.Kind == lang.EntitySubflows {
			return SubflowList
		}
		return PacketQueue
	case *lang.UnaryExpr:
		t := c.checkExpr(e.X, false)
		switch e.Op {
		case lang.NOT:
			if t != Bool && t != Invalid {
				c.errorf(e.OpPos, "operator ! requires bool, got %s", t)
			}
			return Bool
		case lang.MINUS:
			if t != Int && t != Invalid {
				c.errorf(e.OpPos, "unary - requires int, got %s", t)
			}
			return Int
		}
		return Invalid
	case *lang.BinaryExpr:
		return c.typeBinary(e)
	case *lang.Lambda:
		c.errorf(e.ParamPos, "lambda is only valid as the argument of FILTER, MIN or MAX")
		return Invalid
	case *lang.MemberExpr:
		return c.typeMember(e, effectRoot)
	}
	return Invalid
}

var entityQueue = [...]runtime.QueueID{
	lang.EntityQ:  runtime.QueueSend,
	lang.EntityQU: runtime.QueueUnacked,
	lang.EntityRQ: runtime.QueueReinject,
}

// scanOf resolves a well-typed queue expression: an entity, a queue
// variable, or a FILTER of either.
func (c *checker) scanOf(e lang.Expr) *Scan {
	switch e := e.(type) {
	case *lang.EntityExpr:
		return &Scan{Queue: entityQueue[e.Kind]}
	case *lang.Ident:
		return c.chains[c.info.Uses[e]]
	case *lang.MemberExpr:
		in := c.scanOf(e.Recv)
		lam := e.Args[0].(*lang.Lambda)
		sc := &Scan{Queue: in.Queue, Filters: append(in.Filters[:len(in.Filters):len(in.Filters)], lam), NotSentOn: in.NotSentOn}
		if sc.NotSentOn == nil {
			sc.NotSentOn = c.notSentOn(lam)
		}
		return sc
	}
	panic(fmt.Sprintf("types: %s is not a queue expression", lang.FormatExpr(e)))
}

// notSentOn returns x when lam is p => !p.SENT_ON(x) with x an
// identifier bound outside lam, else nil.
func (c *checker) notSentOn(lam *lang.Lambda) *lang.Ident {
	not, ok := lam.Body.(*lang.UnaryExpr)
	if !ok || not.Op != lang.NOT {
		return nil
	}
	call, ok := not.X.(*lang.MemberExpr)
	if !ok {
		return nil
	}
	if m := c.info.Members[call]; m == nil || m.Kind != MemberSentOn {
		return nil
	}
	param := c.info.Defs[lam]
	recv, ok := call.Recv.(*lang.Ident)
	if !ok || c.info.Uses[recv] != param {
		return nil
	}
	x, ok := call.Args[0].(*lang.Ident)
	if !ok || c.info.Uses[x] == nil || c.info.Uses[x] == param {
		return nil
	}
	return x
}

func (c *checker) typeBinary(e *lang.BinaryExpr) Type {
	// Equality with NULL gets special handling: NULL adopts the type of
	// the other operand, which must be a reference type.
	if e.Op == lang.EQ || e.Op == lang.NEQ {
		_, xNull := e.X.(*lang.NullLit)
		_, yNull := e.Y.(*lang.NullLit)
		if xNull && yNull {
			c.errorf(e.X.Position(), "cannot compare NULL with NULL")
			return Bool
		}
		if xNull || yNull {
			other := e.X
			nullSide := e.Y
			if xNull {
				other, nullSide = e.Y, e.X
			}
			t := c.checkExpr(other, false)
			if t != Packet && t != Subflow && t != Invalid {
				c.errorf(other.Position(), "only packets and subflows compare against NULL, got %s", t)
			}
			c.info.ExprTypes[nullSide] = t
			return Bool
		}
	}
	tx := c.checkExpr(e.X, false)
	ty := c.checkExpr(e.Y, false)
	switch e.Op {
	case lang.PLUS, lang.MINUS, lang.STAR, lang.SLASH, lang.PERCENT:
		if (tx != Int && tx != Invalid) || (ty != Int && ty != Invalid) {
			c.errorf(e.X.Position(), "arithmetic requires int operands, got %s and %s", tx, ty)
		}
		return Int
	case lang.LT, lang.LTE, lang.GT, lang.GTE:
		if (tx != Int && tx != Invalid) || (ty != Int && ty != Invalid) {
			c.errorf(e.X.Position(), "comparison requires int operands, got %s and %s", tx, ty)
		}
		return Bool
	case lang.EQ, lang.NEQ:
		if tx != ty && tx != Invalid && ty != Invalid {
			c.errorf(e.X.Position(), "mismatched types in equality: %s and %s", tx, ty)
		} else if tx == SubflowList || tx == PacketQueue {
			c.errorf(e.X.Position(), "%s values are not comparable", tx)
		}
		return Bool
	case lang.AND, lang.OR:
		if (tx != Bool && tx != Invalid) || (ty != Bool && ty != Invalid) {
			c.errorf(e.X.Position(), "%s requires bool operands, got %s and %s", e.Op, tx, ty)
		}
		return Bool
	}
	return Invalid
}

func (c *checker) typeMember(e *lang.MemberExpr, effectRoot bool) Type {
	recvT := c.checkExpr(e.Recv, false)
	m := &Member{RecvType: recvT}
	c.info.Members[e] = m
	fail := func(format string, args ...any) Type {
		c.errorf(e.NamePos, format, args...)
		m.Kind = MemberInvalid
		m.Result = Invalid
		return Invalid
	}
	if recvT == Invalid {
		return Invalid
	}
	if recvT == PacketQueue && e.Name != "FILTER" {
		m.Scan = c.scanOf(e.Recv)
	}

	// Collection operations shared by subflow lists and packet queues.
	if recvT == SubflowList || recvT == PacketQueue {
		switch e.Name {
		case "FILTER", "MIN", "MAX":
			if !e.HasParens || len(e.Args) != 1 {
				return fail("%s takes exactly one lambda argument", e.Name)
			}
			lam, ok := e.Args[0].(*lang.Lambda)
			if !ok {
				return fail("%s argument must be a lambda (x => ...)", e.Name)
			}
			elem := ElemType(recvT)
			c.pushScope()
			c.declare(lam, lam.Param, elem, lam.ParamPos)
			bodyT := c.checkExpr(lam.Body, false)
			c.popScope()
			c.info.ExprTypes[lam] = Invalid // lambdas have no value type
			switch e.Name {
			case "FILTER":
				if bodyT != Bool && bodyT != Invalid {
					return fail("FILTER predicate must be bool, got %s", bodyT)
				}
				m.Kind = MemberFilter
				m.Result = recvT
			case "MIN", "MAX":
				if bodyT != Int && bodyT != Invalid {
					return fail("%s key must be int, got %s", e.Name, bodyT)
				}
				if e.Name == "MIN" {
					m.Kind = MemberMin
				} else {
					m.Kind = MemberMax
				}
				m.Result = elem
			}
			return m.Result
		case "EMPTY":
			if e.HasParens {
				return fail("EMPTY is a property, not a call")
			}
			m.Kind = MemberEmpty
			m.Result = Bool
			return Bool
		case "COUNT":
			if e.HasParens {
				return fail("COUNT is a property, not a call")
			}
			m.Kind = MemberCount
			m.Result = Int
			return Int
		}
	}

	switch recvT {
	case SubflowList:
		if e.Name == "GET" {
			if !e.HasParens || len(e.Args) != 1 {
				return fail("GET takes exactly one int argument")
			}
			if t := c.checkExpr(e.Args[0], false); t != Int && t != Invalid {
				return fail("GET index must be int, got %s", t)
			}
			m.Kind = MemberGet
			m.Result = Subflow
			return Subflow
		}
		return fail("subflow lists have no member %s", e.Name)
	case PacketQueue:
		switch e.Name {
		case "TOP", "FIRST":
			if e.HasParens {
				return fail("%s is a property, not a call", e.Name)
			}
			m.Kind = MemberTop
			m.Result = Packet
			return Packet
		case "BYTES":
			if e.HasParens {
				return fail("BYTES is a property, not a call")
			}
			m.Kind = MemberBytes
			m.Result = Int
			return Int
		case "POP":
			if !e.HasParens || len(e.Args) != 0 {
				return fail("POP takes no arguments")
			}
			if !effectRoot {
				return fail("POP has side effects and is only allowed as a whole VAR initializer, PUSH argument, or DROP argument")
			}
			m.Kind = MemberPop
			m.Result = Packet
			return Packet
		}
		return fail("packet queues have no member %s", e.Name)
	case Subflow:
		if e.Name == "PUSH" {
			return fail("PUSH is a statement, not an expression")
		}
		if e.Name == "HAS_WINDOW_FOR" {
			if !e.HasParens || len(e.Args) != 1 {
				return fail("HAS_WINDOW_FOR takes exactly one packet argument")
			}
			if t := c.checkExpr(e.Args[0], false); t != Packet && t != Invalid {
				return fail("HAS_WINDOW_FOR argument must be a packet, got %s", t)
			}
			m.Kind = MemberHasWindowFor
			m.Result = Bool
			return Bool
		}
		if e.HasParens {
			return fail("subflows have no method %s", e.Name)
		}
		for p := runtime.SubflowIntProp(0); int(p) < runtime.NumSubflowIntProps; p++ {
			if p.String() == e.Name {
				m.Kind = MemberSbfInt
				m.SbfInt = p
				m.Result = Int
				return Int
			}
		}
		for p := runtime.SubflowBoolProp(0); int(p) < runtime.NumSubflowBoolProps; p++ {
			if p.String() == e.Name {
				m.Kind = MemberSbfBool
				m.SbfBool = p
				m.Result = Bool
				return Bool
			}
		}
		return fail("subflows have no property %s", e.Name)
	case Packet:
		if e.Name == "SENT_ON" {
			if !e.HasParens || len(e.Args) != 1 {
				return fail("SENT_ON takes exactly one subflow argument")
			}
			if t := c.checkExpr(e.Args[0], false); t != Subflow && t != Invalid {
				return fail("SENT_ON argument must be a subflow, got %s", t)
			}
			m.Kind = MemberSentOn
			m.Result = Bool
			return Bool
		}
		if e.HasParens {
			return fail("packets have no method %s", e.Name)
		}
		for p := runtime.PacketIntProp(0); int(p) < runtime.NumPacketIntProps; p++ {
			if p.String() == e.Name {
				m.Kind = MemberPktInt
				m.PktInt = p
				m.Result = Int
				return Int
			}
		}
		return fail("packets have no property %s", e.Name)
	}
	return fail("type %s has no member %s", recvT, e.Name)
}
