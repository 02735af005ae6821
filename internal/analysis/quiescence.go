package analysis

import (
	"math/bits"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// The quiescence algebra. The walk computes, for every effect (PUSH,
// POP, DROP, SET, GSET), a kill condition under which it provably does
// not happen, and multiplies them into the program's quiescence
// certificate (runtime.Certificate). Every formula is a DNF over
// substrate facts (runtime.Facts) and is a sufficient condition only: a
// term may be dropped anywhere, which is how each formula stays within
// runtime.MaxTerms minimal terms. Formulas are values, so they allocate
// nothing.
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

// none is the formula "the list is empty".
func none(l sbfSet) dnf { return lit(0, runtime.SomeFact(l.atoms)) }

// filter narrows l by a filter predicate over param: each conjunct of
// its AND tree that is an availability atom joins l's atoms, and any
// other makes l inexact.
func (a *analyzer) filter(e lang.Expr, param *types.Symbol, l *sbfSet) {
	if b, ok := e.(*lang.BinaryExpr); ok && b.Op == lang.AND {
		a.filter(b.X, param, l)
		a.filter(b.Y, param, l)
		return
	}
	atoms, ok := a.atom(e, param)
	l.atoms |= atoms
	l.exact = l.exact && ok
}

// atom recognizes one conjunct of a subflow filter over param as
// availability atoms; ok is false when the conjunct says more.
func (a *analyzer) atom(e lang.Expr, param *types.Symbol) (runtime.Atoms, bool) {
	switch e := e.(type) {
	case *lang.BoolLit:
		return 0, e.Val
	case *lang.UnaryExpr:
		if e.Op != lang.NOT {
			return 0, false
		}
		r, ok := a.prop(e.X, param)
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
		if !ok || add.Op != lang.PLUS || !a.isInt(cwnd, param, runtime.SbfCwnd) {
			return 0, false
		}
		if a.isInt(add.X, param, runtime.SbfSkbsInFlight) && a.isInt(add.Y, param, runtime.SbfQueued) ||
			a.isInt(add.X, param, runtime.SbfQueued) && a.isInt(add.Y, param, runtime.SbfSkbsInFlight) {
			return runtime.AtomHeadroom, true
		}
	}
	return 0, false
}

// prop resolves param.PROP.
func (a *analyzer) prop(e lang.Expr, param *types.Symbol) (*types.Member, bool) {
	m, ok := e.(*lang.MemberExpr)
	if !ok {
		return nil, false
	}
	id, ok := m.Recv.(*lang.Ident)
	if !ok || param == nil || a.info.Uses[id] != param {
		return nil, false
	}
	r := a.info.Members[m]
	return r, r != nil
}

func (a *analyzer) isInt(e lang.Expr, param *types.Symbol, p runtime.SubflowIntProp) bool {
	r, ok := a.prop(e, param)
	return ok && r.Kind == types.MemberSbfInt && r.SbfInt == p
}
