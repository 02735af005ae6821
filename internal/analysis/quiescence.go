package analysis

import (
	"math/bits"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// The quiescence derivation: one symbolic pass over the checked program
// that computes, for every effect (PUSH, POP, DROP, SET, GSET), a kill
// condition under which it provably does not happen, and multiplies
// them into the program's quiescence certificate (runtime.Certificate).
// Every formula is a DNF over substrate facts (runtime.Facts) and is a
// sufficient condition only: a term may be dropped anywhere, which is
// how the pass keeps each formula to runtime.MaxTerms minimal terms.
// Formulas are values, so the pass allocates nothing but what a
// program with more than maxSlots variables needs.
//
// The facts are taken when the execution starts. Subflow facts cannot
// change within an execution; a queue that is empty at the start stays
// empty, since POP only hides packets. That is why queues appear in
// the formulas only as X.EMPTY, never as non-empty.

// dnf is a disjunction of closed terms, t[:n]; n == 0 is false.
type dnf struct {
	n int
	t [runtime.MaxTerms]runtime.Term
}

var dnfTrue = dnf{n: 1}

// lit is the one-term formula of the given literals.
func lit(set, clear runtime.Facts) dnf {
	t, ok := runtime.Term{Set: set, Clear: clear}.Close()
	if !ok {
		return dnf{}
	}
	return dnf{n: 1, t: [runtime.MaxTerms]runtime.Term{t}}
}

// emptyQ is X.EMPTY for the base queue q.
func emptyQ(q runtime.QueueID) dnf {
	return lit(runtime.QueueFacts(q == runtime.QueueSend, q == runtime.QueueUnacked, q == runtime.QueueReinject), 0)
}

// orD is a ∨ b.
func orD(a, b dnf) dnf {
	var raw [2 * runtime.MaxTerms]runtime.Term
	n := copy(raw[:], a.t[:a.n])
	n += copy(raw[n:], b.t[:b.n])
	return minimize(raw[:n])
}

// andD is a ∧ b, distributed. The union of closed terms is closed, so
// a product term only needs its contradiction check.
func andD(a, b dnf) dnf {
	var raw [runtime.MaxTerms * runtime.MaxTerms]runtime.Term
	n := 0
	for _, x := range a.t[:a.n] {
		for _, y := range b.t[:b.n] {
			if t := (runtime.Term{Set: x.Set | y.Set, Clear: x.Clear | y.Clear}); t.Set&t.Clear == 0 {
				raw[n] = t
				n++
			}
		}
	}
	return minimize(raw[:n])
}

// before orders terms by literal count, then by bits: minimize keeps
// the weakest terms, deterministically.
func before(x, y runtime.Term) bool {
	nx, ny := bits.OnesCount32(uint32(x.Set|x.Clear)), bits.OnesCount32(uint32(y.Set|y.Clear))
	if nx != ny {
		return nx < ny
	}
	if x.Set != y.Set {
		return x.Set < y.Set
	}
	return x.Clear < y.Clear
}

// minimize sorts raw, drops duplicate and absorbed terms (a term that
// implies a weaker one), and keeps the runtime.MaxTerms weakest.
func minimize(raw []runtime.Term) dnf {
	for i := 1; i < len(raw); i++ {
		for j := i; j > 0 && before(raw[j], raw[j-1]); j-- {
			raw[j], raw[j-1] = raw[j-1], raw[j]
		}
	}
	var d dnf
	for _, t := range raw {
		absorbed := false
		for _, k := range d.t[:d.n] {
			if k.Set&t.Set == k.Set && k.Clear&t.Clear == k.Clear {
				absorbed = true
				break
			}
		}
		if !absorbed && d.n < runtime.MaxTerms {
			d.t[d.n] = t
			d.n++
		}
	}
	return d
}

// sbfSet abstracts a subflow list: every member satisfies atoms, and
// when exact the list is all usable subflows that do.
type sbfSet struct {
	atoms runtime.Atoms
	exact bool
}

// cond is what is known of a bool: formulas under which it is true
// and under which it is false.
type cond struct{ t, f dnf }

// symFacts is what the pass knows of one variable, by its type: a
// subflow list's set, a reference's nullness, a bool's condition.
type symFacts struct {
	list sbfSet
	null dnf
	cond cond
}

// maxSlots is how many variables the pass tracks without allocating.
const maxSlots = 32

// quiet is the state of one derivation.
type quiet struct {
	info *types.Info
	syms []symFacts // by Symbol.Slot
	cert dnf
}

// Quiescence derives the program's quiescence certificate; one
// without terms means no fact assignment provably silences it.
func Quiescence(info *types.Info) runtime.Certificate {
	var buf [maxSlots]symFacts
	q := quiet{info: info, syms: buf[:], cert: dnfTrue}
	if info.NumSlots > maxSlots {
		q.syms = make([]symFacts, info.NumSlots)
	}
	q.block(info.Prog.Stmts, dnf{})
	return runtime.Certificate{N: q.cert.n, Terms: q.cert.t}
}

// sym is the record of the symbol e names (nil when it names none).
func (q *quiet) sym(e *lang.Ident) *symFacts {
	if s := q.info.Uses[e]; s != nil && s.Slot < len(q.syms) {
		return &q.syms[s.Slot]
	}
	return nil
}

// kill multiplies one effect's kill condition into the certificate.
func (q *quiet) kill(d dnf) { q.cert = andD(q.cert, d) }

func (q *quiet) block(stmts []lang.Stmt, unreached dnf) {
	for _, s := range stmts {
		if q.cert.n == 0 {
			return
		}
		q.stmt(s, unreached)
	}
}

// stmt walks one statement reached unless unreached holds. RETURN is
// ignored: assuming the statements after it are reached is sound.
func (q *quiet) stmt(s lang.Stmt, unreached dnf) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		q.block(s.Stmts, unreached)
	case *lang.IfStmt:
		c := q.cond(s.Cond)
		q.block(s.Then.Stmts, orD(unreached, c.f))
		if s.Else != nil {
			q.stmt(s.Else, orD(unreached, c.t))
		}
	case *lang.ForeachStmt:
		q.block(s.Body.Stmts, orD(unreached, none(q.list(s.Iter))))
	case *lang.VarDecl:
		q.pop(s.Init, unreached)
		sym := q.info.Defs[s]
		if sym == nil || sym.Slot >= len(q.syms) {
			return
		}
		r := &q.syms[sym.Slot]
		switch sym.Type {
		case types.SubflowList:
			r.list = q.list(s.Init)
		case types.Subflow, types.Packet:
			r.null = q.null(s.Init)
		case types.Bool:
			r.cond = q.cond(s.Init)
		}
	case *lang.SetStmt, *lang.GSetStmt:
		q.kill(unreached)
	case *lang.PushStmt:
		q.pop(s.Arg, unreached)
		q.kill(orD(unreached, orD(q.null(s.Target), q.null(s.Arg))))
	case *lang.DropStmt:
		q.pop(s.Arg, unreached)
		q.kill(orD(unreached, q.null(s.Arg)))
	}
}

// pop kills the POP an effect position may hold: it emits nothing when
// its base queue is empty, whatever the statement around it does.
func (q *quiet) pop(e lang.Expr, unreached dnf) {
	if m, ok := e.(*lang.MemberExpr); ok {
		if r := q.info.Members[m]; r != nil && r.Kind == types.MemberPop && r.Scan != nil {
			q.kill(orD(unreached, emptyQ(r.Scan.Queue)))
		}
	}
}

// none is the formula "the list is empty".
func none(l sbfSet) dnf { return lit(0, runtime.SomeFact(l.atoms)) }

// list abstracts a subflow-list expression.
func (q *quiet) list(e lang.Expr) sbfSet {
	switch e := e.(type) {
	case *lang.EntityExpr:
		return sbfSet{exact: e.Kind == lang.EntitySubflows}
	case *lang.Ident:
		if r := q.sym(e); r != nil {
			return r.list
		}
	case *lang.MemberExpr:
		r := q.info.Members[e]
		if r == nil || r.Kind != types.MemberFilter || r.RecvType != types.SubflowList || len(e.Args) != 1 {
			return sbfSet{}
		}
		l := q.list(e.Recv)
		if lam, ok := e.Args[0].(*lang.Lambda); ok {
			q.filter(lam.Body, q.info.Defs[lam], &l)
		} else {
			l.exact = false
		}
		return l
	}
	return sbfSet{}
}

// filter narrows l by a filter predicate over param: each conjunct of
// its AND tree that is an availability atom joins l's atoms, and any
// other makes l inexact.
func (q *quiet) filter(e lang.Expr, param *types.Symbol, l *sbfSet) {
	if b, ok := e.(*lang.BinaryExpr); ok && b.Op == lang.AND {
		q.filter(b.X, param, l)
		q.filter(b.Y, param, l)
		return
	}
	a, ok := q.atom(e, param)
	l.atoms |= a
	l.exact = l.exact && ok
}

// atom recognizes one conjunct of a subflow filter over param as
// availability atoms; ok is false when the conjunct says more.
func (q *quiet) atom(e lang.Expr, param *types.Symbol) (runtime.Atoms, bool) {
	switch e := e.(type) {
	case *lang.BoolLit:
		return 0, e.Val
	case *lang.UnaryExpr:
		if e.Op != lang.NOT {
			return 0, false
		}
		r, ok := q.prop(e.X, param)
		if !ok || r.Kind != types.MemberSbfBool {
			return 0, false
		}
		switch r.SbfBool {
		case runtime.SbfTSQThrottled:
			return runtime.AtomNotTSQ, true
		case runtime.SbfLossy:
			return runtime.AtomNotLossy, true
		case runtime.SbfIsBackup:
			return runtime.AtomPrimary, true
		}
	case *lang.BinaryExpr:
		cwnd, sum := e.X, e.Y
		switch e.Op {
		case lang.GT:
		case lang.LT:
			cwnd, sum = e.Y, e.X
		default:
			return 0, false
		}
		add, ok := sum.(*lang.BinaryExpr)
		if !ok || add.Op != lang.PLUS || !q.isInt(cwnd, param, runtime.SbfCwnd) {
			return 0, false
		}
		if q.isInt(add.X, param, runtime.SbfSkbsInFlight) && q.isInt(add.Y, param, runtime.SbfQueued) ||
			q.isInt(add.X, param, runtime.SbfQueued) && q.isInt(add.Y, param, runtime.SbfSkbsInFlight) {
			return runtime.AtomHeadroom, true
		}
	}
	return 0, false
}

// prop resolves param.PROP.
func (q *quiet) prop(e lang.Expr, param *types.Symbol) (*types.Member, bool) {
	m, ok := e.(*lang.MemberExpr)
	if !ok {
		return nil, false
	}
	id, ok := m.Recv.(*lang.Ident)
	if !ok || param == nil || q.info.Uses[id] != param {
		return nil, false
	}
	r := q.info.Members[m]
	return r, r != nil
}

func (q *quiet) isInt(e lang.Expr, param *types.Symbol, p runtime.SubflowIntProp) bool {
	r, ok := q.prop(e, param)
	return ok && r.Kind == types.MemberSbfInt && r.SbfInt == p
}

// null is the formula "the packet or subflow expression is NULL" (the
// checker admits the NULL literal only in comparisons).
func (q *quiet) null(e lang.Expr) dnf {
	switch e := e.(type) {
	case *lang.Ident:
		if r := q.sym(e); r != nil {
			return r.null
		}
	case *lang.MemberExpr:
		r := q.info.Members[e]
		if r == nil {
			return dnf{}
		}
		switch r.Kind {
		case types.MemberTop, types.MemberPop, types.MemberMin, types.MemberMax, types.MemberGet:
			if r.Scan != nil {
				return emptyQ(r.Scan.Queue)
			}
			if r.RecvType == types.SubflowList {
				return none(q.list(e.Recv))
			}
		}
	}
	return dnf{}
}

// cond abstracts a bool expression.
func (q *quiet) cond(e lang.Expr) cond {
	switch e := e.(type) {
	case *lang.BoolLit:
		if e.Val {
			return cond{t: dnfTrue}
		}
		return cond{f: dnfTrue}
	case *lang.Ident:
		if r := q.sym(e); r != nil {
			return r.cond
		}
	case *lang.UnaryExpr:
		if e.Op == lang.NOT {
			c := q.cond(e.X)
			return cond{t: c.f, f: c.t}
		}
	case *lang.BinaryExpr:
		switch e.Op {
		case lang.AND:
			x, y := q.cond(e.X), q.cond(e.Y)
			return cond{t: andD(x.t, y.t), f: orD(x.f, y.f)}
		case lang.OR:
			x, y := q.cond(e.X), q.cond(e.Y)
			return cond{t: orD(x.t, y.t), f: andD(x.f, y.f)}
		case lang.EQ, lang.NEQ:
			var null dnf
			if _, ok := e.Y.(*lang.NullLit); ok {
				null = q.null(e.X)
			} else if _, ok := e.X.(*lang.NullLit); ok {
				null = q.null(e.Y)
			}
			if e.Op == lang.EQ {
				return cond{t: null}
			}
			return cond{f: null}
		}
	case *lang.MemberExpr:
		r := q.info.Members[e]
		if r == nil || r.Kind != types.MemberEmpty {
			return cond{}
		}
		if r.Scan != nil {
			return cond{t: emptyQ(r.Scan.Queue)}
		}
		l := q.list(e.Recv)
		c := cond{t: none(l)}
		if l.exact {
			c.f = lit(runtime.SomeFact(l.atoms), 0)
		}
		return c
	}
	return cond{}
}
