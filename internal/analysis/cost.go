package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The step bound is a polynomial over two size parameters: S, the
// number of subflows (bounded by runtime.MaxSubflows), and N, the depth
// of the deepest packet queue (unbounded by the language, so evaluated
// at a reference depth). It bounds VM steps (vm.Program.StepCounter):
// the VM is the only back-end with a budget (vm.MaxSteps). The language
// cannot FOREACH over queues, so the degree is bounded by the static
// expression structure: FOREACH, the SUBFLOWS mask, list FILTER/MIN/MAX
// and GET multiply their per-subflow work by S, and queue scans (TOP,
// POP, EMPTY through a filter chain; COUNT, BYTES, MIN, MAX always)
// multiply the chain's per-packet work by N.
//
// The walk counts the IR instructions each construct's emitter issues
// (vm/compiler.go), with one instruction per AST node and two per
// statement as the baseline and the constants below where an emitter
// issues more. Two terms cover what the IR count does not see:
// hoistConsts moves constants rematerialized in loop and lambda bodies
// into an entry preamble that runs even when S or N is 0, and is no
// longer than the program, whose size the cost at S = N = 1 bounds; and
// spilled values cost extra instructions per IR instruction
// (spillFactor). FuzzStepBound checks the result against the VM.
const (
	// spillFactor: the register allocator reaches a spilled operand
	// through a scratch register and stores a spilled result back, so
	// one IR instruction dispatches at most two OpLoadSlot, itself and
	// one OpStoreSlot (vm/regalloc.go).
	spillFactor = 4

	// loopSetup is forEachSubflowIdx's generic loop outside its
	// iterations: OpSbfCount, the index and increment OpMovImm, and the
	// final OpLt/OpJz.
	loopSetup = 5
	// loopStep is one forEachSubflowIdx iteration's overhead: OpLt,
	// OpJz, the index OpAdd and the back OpJmp. The bodies add their
	// OpJbc membership test and OpSbfRef.
	loopStep = 4

	// scanSetup is queueScan outside its iterations, for its costliest
	// consumer: the position and zero OpMovImm, the final
	// OpQNext/OpLt/OpJnz, the result's OpMovImm, queueTop's OpMov/OpJmp
	// on the match, and POP's OpJz/OpPop or EMPTY's OpMovImm/OpEq.
	scanSetup = 10
	// scanStep is one queueScan iteration's overhead: OpQNext, OpLt,
	// OpJnz, OpPktRef and the back OpJmp. Each FILTER of the chain adds
	// its parameter OpMov and its predicate's branch (filterStep).
	scanStep   = 5
	filterStep = 2

	// boolOpStep is AND/OR in value form (boolBinary): OpMov of each
	// operand and the short-circuit jump.
	boolOpStep = 3
	// ifStep is an IF's condJumps fallback branch and its jump over ELSE.
	ifStep = 2
)

var (
	spillPoly = constPoly(spillFactor)
	// subflowsCost is the SUBFLOWS mask, built by a generic
	// forEachSubflowIdx loop: its OpMovImm, and one OpBitSet a subflow.
	subflowsCost = poly{term{}: 1 + loopSetup, term{s: 1}: loopStep + 1}
	// getCost is listGet besides its receiver and index: OpMovImm,
	// OpPopcnt, OpJz, OpMod/OpAdd/OpMod, two OpMovImm, and a
	// forEachSubflowIdx walk of OpJbc, OpJne, OpSbfRef and OpAdd a
	// subflow.
	getCost = poly{term{}: 8 + loopSetup, term{s: 1}: loopStep + 4}
)

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
