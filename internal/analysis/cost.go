package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
)

// The termination-bound model expresses a program's worst-case step
// count as a polynomial over two size parameters: S, the number of
// subflows (bounded by runtime.MaxSubflows), and N, the depth of a
// packet queue (unbounded by the language, so evaluated at a reference
// depth). The language cannot FOREACH over queues, so the polynomial
// degree is bounded by the static expression structure: FOREACH and
// list FILTER/MIN/MAX multiply their body by S, queue scans (TOP,
// COUNT, EMPTY, MIN, MAX, and POP through a filter chain) multiply the
// chain's predicate cost by N. Per-node constants are deliberately
// generous so the bound dominates all three back-ends.

// term is one monomial's exponents: coeff · S^s · N^n.
type term struct{ s, n int }

// maxExponent caps monomial degree; anything deeper saturates the
// coefficient instead (the bound stays sound: eval saturates anyway).
const maxExponent = 8

// poly is a sparse polynomial with saturating coefficients.
type poly map[term]int64

func constPoly(c int64) poly { return poly{term{}: c} }

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return s, false
}

func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return p, false
}

// add returns p + q.
func (p poly) add(q poly) poly {
	out := make(poly, len(p)+len(q))
	for t, c := range p {
		out[t] = c
	}
	for t, c := range q {
		s, _ := satAdd(out[t], c)
		out[t] = s
	}
	return out
}

// addConst returns p + c.
func (p poly) addConst(c int64) poly { return p.add(constPoly(c)) }

// mul returns p · q with exponents clamped at maxExponent.
func (p poly) mul(q poly) poly {
	out := make(poly)
	for tp, cp := range p {
		for tq, cq := range q {
			t := term{tp.s + tq.s, tp.n + tq.n}
			if t.s > maxExponent {
				t.s = maxExponent
			}
			if t.n > maxExponent {
				t.n = maxExponent
			}
			c, _ := satMul(cp, cq)
			s, _ := satAdd(out[t], c)
			out[t] = s
		}
	}
	return out
}

// eval computes the bound at S subflows and N queued packets,
// saturating at MaxInt64.
func (p poly) eval(S, N int64) int64 {
	var total int64
	for t, c := range p {
		v := c
		for i := 0; i < t.s; i++ {
			v, _ = satMul(v, S)
		}
		for i := 0; i < t.n; i++ {
			v, _ = satMul(v, N)
		}
		total, _ = satAdd(total, v)
	}
	return total
}

// String renders the polynomial in a stable order, constants first,
// then by total degree: "12 + 34·S + 5·S·N²".
func (p poly) String() string {
	terms := make([]term, 0, len(p))
	for t, c := range p {
		if c != 0 {
			terms = append(terms, t)
		}
	}
	if len(terms) == 0 {
		return "0"
	}
	sort.Slice(terms, func(i, j int) bool {
		a, b := terms[i], terms[j]
		if a.s+a.n != b.s+b.n {
			return a.s+a.n < b.s+b.n
		}
		if a.s != b.s {
			return a.s < b.s
		}
		return a.n < b.n
	})
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteString(" + ")
		}
		c := p[t]
		if c != 1 || (t.s == 0 && t.n == 0) {
			fmt.Fprintf(&b, "%d", c)
			if t.s > 0 || t.n > 0 {
				b.WriteString("·")
			}
		}
		writeVar := func(name string, exp int) {
			if exp == 0 {
				return
			}
			b.WriteString(name)
			if exp > 1 {
				fmt.Fprintf(&b, "^%d", exp)
			}
		}
		writeVar("S", t.s)
		if t.s > 0 && t.n > 0 {
			b.WriteString("·")
		}
		writeVar("N", t.n)
	}
	return b.String()
}

var (
	sTerm = poly{term{s: 1}: 1}
	nTerm = poly{term{n: 1}: 1}
)

// ---- Program cost ----

// costProgram bounds the whole program.
func (a *analyzer) costProgram() poly {
	total := constPoly(1)
	for _, s := range a.info.Prog.Stmts {
		total = total.add(a.costStmt(s))
	}
	return total
}

func (a *analyzer) costStmt(s lang.Stmt) poly {
	switch s := s.(type) {
	case *lang.BlockStmt:
		total := constPoly(1)
		for _, inner := range s.Stmts {
			total = total.add(a.costStmt(inner))
		}
		return total
	case *lang.IfStmt:
		// Branch cost is summed, not maxed: sound and keeps the
		// polynomial representation closed.
		total := constPoly(1).add(a.costExpr(s.Cond))
		for _, inner := range s.Then.Stmts {
			total = total.add(a.costStmt(inner))
		}
		if s.Else != nil {
			total = total.add(a.costStmt(s.Else))
		}
		return total
	case *lang.VarDecl:
		return a.costExpr(s.Init).addConst(2)
	case *lang.ForeachStmt:
		body := constPoly(2)
		for _, inner := range s.Body.Stmts {
			body = body.add(a.costStmt(inner))
		}
		return a.costExpr(s.Iter).add(sTerm.mul(body)).addConst(2)
	case *lang.SetStmt:
		return a.costExpr(s.Value).addConst(2)
	case *lang.GSetStmt:
		return a.costExpr(s.Value).addConst(2)
	case *lang.PushStmt:
		return a.costExpr(s.Target).add(a.costExpr(s.Arg)).addConst(2)
	case *lang.DropStmt:
		return a.costExpr(s.Arg).addConst(2)
	case *lang.ReturnStmt:
		return constPoly(1)
	}
	return constPoly(1)
}

func (a *analyzer) costExpr(e lang.Expr) poly {
	switch e := e.(type) {
	case *lang.NumberLit, *lang.BoolLit, *lang.NullLit, *lang.RegExpr,
		*lang.GlobalExpr, *lang.Ident, *lang.EntityExpr:
		return constPoly(1)
	case *lang.UnaryExpr:
		return a.costExpr(e.X).addConst(1)
	case *lang.BinaryExpr:
		return a.costExpr(e.X).add(a.costExpr(e.Y)).addConst(1)
	case *lang.Lambda:
		return a.costExpr(e.Body).addConst(1)
	case *lang.MemberExpr:
		return a.costMember(e)
	}
	return constPoly(1)
}

func (a *analyzer) costMember(e *lang.MemberExpr) poly {
	m := a.info.Members[e]
	recv := a.costExpr(e.Recv)
	if m == nil {
		return recv.addConst(1)
	}
	// FILTER, MIN and MAX: the checker admitted exactly one lambda.
	lambdaBody := func() poly { return a.costExpr(e.Args[0].(*lang.Lambda).Body) }
	minMax := m.Kind == types.MemberMin || m.Kind == types.MemberMax
	switch {
	case m.Scan != nil && minMax:
		return recv.add(nTerm.mul(a.scanPredCost(m.Scan).add(lambdaBody()).addConst(2))).addConst(1)
	case m.Scan != nil:
		// TOP / POP / COUNT / BYTES / EMPTY through a filter chain visit
		// up to N packets, paying every predicate on each. On the bare
		// queue they are O(1) — except COUNT and BYTES, which walk it.
		if len(m.Scan.Filters) == 0 && e.Name != "COUNT" && e.Name != "BYTES" {
			return recv.addConst(2)
		}
		return recv.add(nTerm.mul(a.scanPredCost(m.Scan).addConst(1))).addConst(1)
	case m.Kind == types.MemberFilter && m.RecvType == types.PacketQueue:
		// Queue filters are lazy: naming the chain is O(1); the
		// predicates are charged where the chain is scanned.
		return recv.addConst(1)
	case m.Kind == types.MemberFilter, minMax:
		// Subflow-list filters are materialized eagerly and MIN/MAX walk
		// the list: one lambda evaluation per subflow.
		return recv.add(sTerm.mul(lambdaBody().addConst(2))).addConst(1)
	}
	// Property reads, GET, HAS_WINDOW_FOR, SENT_ON: constant work plus
	// argument cost.
	total := recv.addConst(2)
	for _, arg := range e.Args {
		total = total.add(a.costExpr(arg))
	}
	return total
}

// scanPredCost sums the predicate-body costs of the FILTER chain a
// queue scan runs per packet, as the checker resolved it.
func (a *analyzer) scanPredCost(sc *types.Scan) poly {
	total := constPoly(0)
	for _, lam := range sc.Filters {
		total = total.add(a.costExpr(lam.Body).addConst(1))
	}
	return total
}
