package vm

import (
	"fmt"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// irIns is an instruction over unlimited virtual registers, produced by
// the cross-compiler and consumed by the register allocator. line is
// the source line of a PUSH, POP or DROP (Instr.Line); it sits beside
// op, in what would otherwise be padding.
type irIns struct {
	op   Op
	line int32
	dst  int
	a, b int
	k    int64
}

// unrollLimit bounds full loop unrolling under constant-subflow-count
// specialization.
const unrollLimit = 8

// Options configure compilation.
type Options struct {
	// SubflowCount, when >= 0, specializes the program for exactly
	// that many subflows: subflow loops unroll and SUBFLOWS masks
	// become constants. The VM refuses to run a specialized program
	// against a mismatched environment; callers keep a generic
	// fallback (§4.1: "the JIT-compiler optimizes for a constant
	// number of subflows and returns to the original version
	// otherwise").
	SubflowCount int
	// DisableOptimizations skips the IR passes (jump threading,
	// dead-code elimination); for ablation measurements only.
	//progmp:ignore testonly the VM IR optimizer ablation row of EXPERIMENTS.md sets it (BenchmarkAblation_VMOptimizer)
	DisableOptimizations bool
}

// Compile lowers a checked program to verified bytecode.
//
//progmp:deterministic
func Compile(info *types.Info, opts Options) (*Program, error) {
	if opts.SubflowCount >= 0 && opts.SubflowCount > runtime.MaxSubflows {
		return nil, fmt.Errorf("vm: cannot specialize for %d subflows (max %d)", opts.SubflowCount, runtime.MaxSubflows)
	}
	c := &comp{
		info:   info,
		syms:   make(map[*types.Symbol]int),
		constN: opts.SubflowCount,
	}
	for _, s := range info.Prog.Stmts {
		c.stmt(s)
	}
	c.emit(OpReturn, 0, 0, 0, 0)
	if !opts.DisableOptimizations {
		c.ir = optimize(c.ir)
	}
	// Optimization may introduce vregs (hoisted canonical constants).
	nv := c.nv
	if mv := maxVreg(c.ir); mv > nv {
		nv = mv
	}
	insns, spills, err := allocate(c.ir, nv)
	if err != nil {
		return nil, fmt.Errorf("vm: register allocation: %w", err)
	}
	prog := &Program{Insns: insns, SpillSlots: spills, SpecializedSubflows: opts.SubflowCount}
	if err := Verify(prog); err != nil {
		return nil, fmt.Errorf("vm: verification: %w", err)
	}
	return prog, nil
}

type comp struct {
	info *types.Info
	ir   []irIns
	nv   int
	// syms maps int/bool/packet/subflow/list symbols to their vreg.
	// Queue-typed symbols have none: the checker resolved every scan
	// (types.Scan) and the chain is inlined there.
	syms   map[*types.Symbol]int
	constN int
}

func (c *comp) newv() int {
	v := c.nv
	c.nv++
	return v
}

func (c *comp) emit(op Op, dst, a, b int, k int64) int {
	c.ir = append(c.ir, irIns{op: op, dst: dst, a: a, b: b, k: k})
	return len(c.ir) - 1
}

// here returns the index of the next instruction to be emitted.
func (c *comp) here() int { return len(c.ir) }

// patch fixes the jump at index at to target the next instruction.
func (c *comp) patch(at int) {
	c.ir[at].k = int64(len(c.ir) - at - 1)
}

// patchTo fixes the jump at index at to target instruction index to.
func (c *comp) patchTo(at, to int) {
	c.ir[at].k = int64(to - at - 1)
}

// imm materializes a constant in a fresh vreg.
func (c *comp) imm(v int64) int {
	dst := c.newv()
	c.emit(OpMovImm, dst, 0, 0, v)
	return dst
}

// ---- Statements ----

func (c *comp) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		for _, inner := range s.Stmts {
			c.stmt(inner)
		}
	case *lang.IfStmt:
		jfs := c.condJumps(s.Cond, false)
		for _, inner := range s.Then.Stmts {
			c.stmt(inner)
		}
		if s.Else == nil {
			for _, j := range jfs {
				c.patch(j)
			}
			return
		}
		jend := c.emit(OpJmp, 0, 0, 0, 0)
		for _, j := range jfs {
			c.patch(j)
		}
		c.stmt(s.Else)
		c.patch(jend)
	case *lang.VarDecl:
		sym := c.info.Defs[s]
		switch sym.Type {
		case types.Int:
			c.syms[sym] = c.intExpr(s.Init)
		case types.Bool:
			c.syms[sym] = c.boolExpr(s.Init)
		case types.Packet:
			c.syms[sym] = c.pktExpr(s.Init)
		case types.Subflow:
			c.syms[sym] = c.sbfExpr(s.Init)
		case types.SubflowList:
			c.syms[sym] = c.listMask(s.Init)
		}
	case *lang.ForeachStmt:
		sym := c.info.Defs[s]
		mask := c.listMask(s.Iter)
		c.forEachSubflowIdx(func(idx int) {
			skip := c.emit(OpJbc, 0, mask, idx, 0)
			// A fresh loop variable per unrolled iteration keeps each
			// OpSbfRef single-assignment, so constant folding turns it
			// into a hoistable constant handle.
			loopVar := c.newv()
			c.syms[sym] = loopVar
			c.emit(OpSbfRef, loopVar, idx, 0, 0)
			for _, inner := range s.Body.Stmts {
				c.stmt(inner)
			}
			c.patch(skip)
		})
	case *lang.SetStmt:
		v := c.intExpr(s.Value)
		c.emit(OpStoreReg, 0, v, 0, int64(s.Reg))
	case *lang.GSetStmt:
		v := c.intExpr(s.Value)
		c.emit(OpStoreGlobal, 0, v, 0, int64(s.Reg))
	case *lang.PushStmt:
		target := c.sbfExpr(s.Target)
		arg := c.pktExpr(s.Arg)
		c.ir[c.emit(OpPush, 0, target, arg, 0)].line = int32(s.PushAt.Line)
	case *lang.DropStmt:
		arg := c.pktExpr(s.Arg)
		c.ir[c.emit(OpDrop, 0, arg, 0, 0)].line = int32(s.DropPos.Line)
	case *lang.ReturnStmt:
		c.emit(OpReturn, 0, 0, 0, 0)
	default:
		panic(fmt.Sprintf("vm: unhandled statement %T", s))
	}
}

// forEachSubflowIdx emits a loop (or, under specialization with a small
// constant count, an unrolled sequence) whose body receives a vreg
// holding the current subflow index.
func (c *comp) forEachSubflowIdx(body func(idxVreg int)) {
	if c.constN >= 0 && c.constN <= unrollLimit {
		for i := 0; i < c.constN; i++ {
			body(c.imm(int64(i)))
		}
		return
	}
	count := c.subflowCount()
	idx := c.imm(0)
	one := c.imm(1)
	loopStart := c.here()
	inRange := c.newv()
	c.emit(OpLt, inRange, idx, count, 0)
	jdone := c.emit(OpJz, 0, inRange, 0, 0)
	body(idx)
	c.emit(OpAdd, idx, idx, one, 0)
	back := c.emit(OpJmp, 0, 0, 0, 0)
	c.patchTo(back, loopStart)
	c.patch(jdone)
}

// subflowCount yields a vreg with the number of subflows.
func (c *comp) subflowCount() int {
	if c.constN >= 0 {
		return c.imm(int64(c.constN))
	}
	dst := c.newv()
	c.emit(OpSbfCount, dst, 0, 0, 0)
	return dst
}

// ---- Int expressions ----

func (c *comp) intExpr(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.NumberLit:
		return c.imm(e.Val)
	case *lang.RegExpr:
		dst := c.newv()
		c.emit(OpLoadReg, dst, 0, 0, int64(e.Index))
		return dst
	case *lang.GlobalExpr:
		dst := c.newv()
		c.emit(OpLoadGlobal, dst, 0, 0, int64(e.Index))
		return dst
	case *lang.Ident:
		return c.syms[c.info.Uses[e]]
	case *lang.UnaryExpr:
		x := c.intExpr(e.X)
		dst := c.newv()
		c.emit(OpNeg, dst, x, 0, 0)
		return dst
	case *lang.BinaryExpr:
		x := c.intExpr(e.X)
		y := c.intExpr(e.Y)
		dst := c.newv()
		c.emit(binaryOp(e.Op), dst, x, y, 0)
		return dst
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberSbfInt:
			recv := c.sbfExpr(e.Recv)
			dst := c.newv()
			c.emit(OpSbfIntProp, dst, recv, 0, int64(m.SbfInt))
			return dst
		case types.MemberPktInt:
			recv := c.pktExpr(e.Recv)
			dst := c.newv()
			c.emit(OpPktProp, dst, recv, 0, int64(m.PktInt))
			return dst
		case types.MemberCount:
			if m.Scan == nil {
				mask := c.listMask(e.Recv)
				dst := c.newv()
				c.emit(OpPopcnt, dst, mask, 0, 0)
				return dst
			}
			return c.queueCount(m.Scan)
		case types.MemberBytes:
			return c.queueBytes(m.Scan)
		}
	}
	panic(fmt.Sprintf("vm: unhandled int expression %s", lang.FormatExpr(e)))
}

// ---- Bool expressions ----

// condJumps compiles e in branch context: the emitted code jumps when
// the condition's truth equals want and falls through otherwise. The
// returned instruction indices are the pending jumps, to be patched to
// the branch target. NOT and short-circuit AND/OR become pure control
// flow — no boolean is materialized — and comparisons emit fused
// compare-and-branch instructions directly.
func (c *comp) condJumps(e lang.Expr, want bool) []int {
	switch e := e.(type) {
	case *lang.BoolLit:
		if e.Val == want {
			return []int{c.emit(OpJmp, 0, 0, 0, 0)}
		}
		return nil
	case *lang.UnaryExpr:
		if e.Op == lang.NOT {
			return c.condJumps(e.X, !want)
		}
	case *lang.BinaryExpr:
		switch e.Op {
		case lang.AND, lang.OR:
			// Jumping on the truth of an AND (dually, the falsity of an
			// OR) must prove both operands: the first operand's
			// complement jumps land on the overall fall-through.
			if (e.Op == lang.AND) == want {
				around := c.condJumps(e.X, !want)
				out := c.condJumps(e.Y, want)
				for _, j := range around {
					c.patch(j)
				}
				return out
			}
			out := c.condJumps(e.X, want)
			return append(out, c.condJumps(e.Y, want)...)
		case lang.LT, lang.LTE, lang.GT, lang.GTE, lang.EQ, lang.NEQ:
			x, y := c.compareOperands(e)
			op := ops[binaryOp(e.Op)].jump
			if !want {
				op = ops[op].inv
			}
			return []int{c.emit(op, 0, x, y, 0)}
		}
	case *lang.MemberExpr:
		if m := c.info.Members[e]; m.Kind == types.MemberSbfBool {
			// The hottest predicate shape: test a subflow boolean
			// property and branch, with no materialized 0/1.
			recv := c.sbfExpr(e.Recv)
			op := OpJsbnz
			if !want {
				op = OpJsbz
			}
			return []int{c.emit(op, 0, recv, int(m.SbfBool), 0)}
		}
		if c.info.Members[e].Kind == types.MemberEmpty {
			// EMPTY is a zero test on the mask or top-packet handle.
			var v int
			if sc := c.info.Members[e].Scan; sc == nil {
				v = c.listMask(e.Recv)
			} else {
				v = c.queueTop(sc)
			}
			if want {
				return []int{c.emit(OpJz, 0, v, 0, 0)}
			}
			return []int{c.emit(OpJnz, 0, v, 0, 0)}
		}
	}
	v := c.boolExpr(e)
	if want {
		return []int{c.emit(OpJnz, 0, v, 0, 0)}
	}
	return []int{c.emit(OpJz, 0, v, 0, 0)}
}

// binaryOp is the value-producing opcode of a DSL arithmetic or
// comparison operator; a comparison's branch forms hang off its row in
// the ISA table.
func binaryOp(k lang.Kind) Op {
	switch k {
	case lang.PLUS:
		return OpAdd
	case lang.MINUS:
		return OpSub
	case lang.STAR:
		return OpMul
	case lang.SLASH:
		return OpDiv
	case lang.PERCENT:
		return OpMod
	case lang.EQ:
		return OpEq
	case lang.NEQ:
		return OpNe
	case lang.LT:
		return OpLt
	case lang.LTE:
		return OpLe
	case lang.GT:
		return OpGt
	case lang.GTE:
		return OpGe
	}
	panic(fmt.Sprintf("vm: unhandled binary operator %s", k))
}

// compareOperands compiles both sides of a comparison: integers for an
// ordering and, because all value encodings are canonical int64 handles
// that one integer comparison tells apart, any type for an equality.
func (c *comp) compareOperands(e *lang.BinaryExpr) (x, y int) {
	if e.Op == lang.EQ || e.Op == lang.NEQ {
		return c.anyExpr(e.X), c.anyExpr(e.Y)
	}
	return c.intExpr(e.X), c.intExpr(e.Y)
}

func (c *comp) boolExpr(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.BoolLit:
		if e.Val {
			return c.imm(1)
		}
		return c.imm(0)
	case *lang.Ident:
		return c.syms[c.info.Uses[e]]
	case *lang.UnaryExpr:
		x := c.boolExpr(e.X)
		dst := c.newv()
		c.emit(OpNot, dst, x, 0, 0)
		return dst
	case *lang.BinaryExpr:
		return c.boolBinary(e)
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberSbfBool:
			recv := c.sbfExpr(e.Recv)
			dst := c.newv()
			c.emit(OpSbfBoolProp, dst, recv, 0, int64(m.SbfBool))
			return dst
		case types.MemberHasWindowFor:
			recv := c.sbfExpr(e.Recv)
			arg := c.pktExpr(e.Args[0])
			dst := c.newv()
			c.emit(OpHasWnd, dst, recv, arg, 0)
			return dst
		case types.MemberSentOn:
			recv := c.pktExpr(e.Recv)
			arg := c.sbfExpr(e.Args[0])
			dst := c.newv()
			c.emit(OpSentOn, dst, recv, arg, 0)
			return dst
		case types.MemberEmpty:
			if m.Scan == nil {
				mask := c.listMask(e.Recv)
				zero := c.imm(0)
				dst := c.newv()
				c.emit(OpEq, dst, mask, zero, 0)
				return dst
			}
			top := c.queueTop(m.Scan)
			zero := c.imm(0)
			dst := c.newv()
			c.emit(OpEq, dst, top, zero, 0)
			return dst
		}
	}
	panic(fmt.Sprintf("vm: unhandled bool expression %s", lang.FormatExpr(e)))
}

func (c *comp) boolBinary(e *lang.BinaryExpr) int {
	switch e.Op {
	case lang.AND, lang.OR:
		// Short-circuit into a result vreg.
		dst := c.newv()
		x := c.boolExpr(e.X)
		c.emit(OpMov, dst, x, 0, 0)
		var skip int
		if e.Op == lang.AND {
			skip = c.emit(OpJz, 0, dst, 0, 0)
		} else {
			skip = c.emit(OpJnz, 0, dst, 0, 0)
		}
		y := c.boolExpr(e.Y)
		c.emit(OpMov, dst, y, 0, 0)
		c.patch(skip)
		return dst
	case lang.LT, lang.LTE, lang.GT, lang.GTE, lang.EQ, lang.NEQ:
		x, y := c.compareOperands(e)
		dst := c.newv()
		c.emit(binaryOp(e.Op), dst, x, y, 0)
		return dst
	}
	panic(fmt.Sprintf("vm: unhandled bool binary %s", e.Op))
}

// anyExpr compiles an operand of an equality by its checked type.
func (c *comp) anyExpr(e lang.Expr) int {
	switch c.info.TypeOf(e) {
	case types.Packet:
		return c.pktExpr(e)
	case types.Subflow:
		return c.sbfExpr(e)
	case types.Bool:
		return c.boolExpr(e)
	default:
		return c.intExpr(e)
	}
}

// ---- Packet expressions ----

func (c *comp) pktExpr(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.NullLit:
		return c.imm(0)
	case *lang.Ident:
		return c.syms[c.info.Uses[e]]
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberTop:
			return c.queueTop(m.Scan)
		case types.MemberPop:
			top := c.queueTop(m.Scan)
			skip := c.emit(OpJz, 0, top, 0, 0)
			c.ir[c.emit(OpPop, 0, top, 0, int64(m.Scan.Queue))].line = int32(e.Position().Line)
			c.patch(skip)
			return top
		case types.MemberMin, types.MemberMax:
			return c.queueMinMax(e, m)
		}
	}
	panic(fmt.Sprintf("vm: unhandled packet expression %s", lang.FormatExpr(e)))
}

// ---- Subflow expressions ----

func (c *comp) sbfExpr(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.NullLit:
		return c.imm(0)
	case *lang.Ident:
		return c.syms[c.info.Uses[e]]
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberMin, types.MemberMax:
			return c.listMinMax(e, m)
		case types.MemberGet:
			return c.listGet(e)
		}
	}
	panic(fmt.Sprintf("vm: unhandled subflow expression %s", lang.FormatExpr(e)))
}

// listMinMax selects the subflow with minimal/maximal key from a list.
func (c *comp) listMinMax(e *lang.MemberExpr, m *types.Member) int {
	mask := c.listMask(e.Recv)
	lam := e.Args[0].(*lang.Lambda)
	paramSym := c.info.Defs[lam]

	best := c.imm(0)    // NULL
	bestKey := c.imm(0) // irrelevant while best == 0
	c.forEachSubflowIdx(func(idx int) {
		skip := c.emit(OpJbc, 0, mask, idx, 0)
		param := c.newv()
		c.syms[paramSym] = param
		c.emit(OpSbfRef, param, idx, 0, 0)
		key := c.intExpr(lam.Body)
		// take if best == NULL or key beats bestKey
		isNull := c.newv()
		zero := c.imm(0)
		c.emit(OpEq, isNull, best, zero, 0)
		jTake := c.emit(OpJnz, 0, isNull, 0, 0)
		better := c.newv()
		if m.Kind == types.MemberMax {
			c.emit(OpGt, better, key, bestKey, 0)
		} else {
			c.emit(OpLt, better, key, bestKey, 0)
		}
		jSkip := c.emit(OpJz, 0, better, 0, 0)
		c.patch(jTake)
		c.emit(OpMov, best, param, 0, 0)
		c.emit(OpMov, bestKey, key, 0, 0)
		c.patch(jSkip)
		c.patch(skip)
	})
	return best
}

// listGet implements GET(i) with wrap-around indexing over the list's
// set bits (graceful out-of-range handling, NULL when empty).
func (c *comp) listGet(e *lang.MemberExpr) int {
	mask := c.listMask(e.Recv)
	rawIdx := c.intExpr(e.Args[0])

	res := c.imm(0)
	n := c.newv()
	c.emit(OpPopcnt, n, mask, 0, 0)
	jEmpty := c.emit(OpJz, 0, n, 0, 0)
	// want = ((rawIdx % n) + n) % n
	t := c.newv()
	c.emit(OpMod, t, rawIdx, n, 0)
	c.emit(OpAdd, t, t, n, 0)
	c.emit(OpMod, t, t, n, 0)
	// Walk set bits counting down.
	seen := c.imm(0)
	one := c.imm(1)
	c.forEachSubflowIdx(func(idx int) {
		skip := c.emit(OpJbc, 0, mask, idx, 0)
		notTarget := c.emit(OpJne, 0, seen, t, 0)
		c.emit(OpSbfRef, res, idx, 0, 0)
		c.patch(notTarget)
		c.emit(OpAdd, seen, seen, one, 0)
		c.patch(skip)
	})
	c.patch(jEmpty)
	return res
}

// ---- Subflow list masks ----

// listMask compiles a subflow-list expression into a membership bitmask
// over subflow indices.
func (c *comp) listMask(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.EntityExpr:
		if c.constN >= 0 {
			var m int64
			if c.constN > 0 {
				m = int64((uint64(1) << uint(c.constN)) - 1)
			}
			return c.imm(m)
		}
		mask := c.imm(0)
		c.forEachSubflowIdx(func(idx int) {
			c.emit(OpBitSet, mask, mask, idx, 0)
		})
		return mask
	case *lang.Ident:
		return c.syms[c.info.Uses[e]]
	case *lang.MemberExpr:
		m := c.info.Members[e]
		if m.Kind != types.MemberFilter {
			break
		}
		inner := c.listMask(e.Recv)
		lam := e.Args[0].(*lang.Lambda)
		paramSym := c.info.Defs[lam]
		mask := c.imm(0)
		c.forEachSubflowIdx(func(idx int) {
			skip := c.emit(OpJbc, 0, inner, idx, 0)
			param := c.newv()
			c.syms[paramSym] = param
			c.emit(OpSbfRef, param, idx, 0, 0)
			fails := c.condJumps(lam.Body, false)
			c.emit(OpBitSet, mask, mask, idx, 0)
			for _, at := range fails {
				c.patch(at)
			}
			c.patch(skip)
		})
		return mask
	}
	panic(fmt.Sprintf("vm: unhandled subflow list expression %s", lang.FormatExpr(e)))
}

// ---- Queues ----

// queueScan emits a loop over the visible, filter-matching packets of a
// resolved queue scan. body receives the vreg holding the current packet
// handle and the patch-list for "continue"; returning from body is via
// emitted jumps. body returns jump indices to patch to the loop end
// ("break" sites). A scan with a !p.SENT_ON(x) filter starts past the
// packets sent on x (OpQSkipSent) instead of at -1.
func (c *comp) queueScan(sc *types.Scan, body func(pkt int) (breaks []int)) {
	qid := int64(sc.Queue)
	var pos int
	if sc.NotSentOn != nil {
		pos = c.newv()
		c.emit(OpQSkipSent, pos, c.sbfExpr(sc.NotSentOn), 0, qid)
	} else {
		pos = c.imm(-1)
	}
	loopStart := c.here()
	c.emit(OpQNext, pos, pos, 0, qid)
	negative := c.newv()
	zero := c.imm(0)
	c.emit(OpLt, negative, pos, zero, 0)
	jdone := c.emit(OpJnz, 0, negative, 0, 0)
	pkt := c.newv()
	c.emit(OpPktRef, pkt, pos, 0, qid)
	var continues []int
	for _, lam := range sc.Filters {
		paramSym := c.info.Defs[lam]
		param, ok := c.syms[paramSym]
		if !ok {
			param = c.newv()
			c.syms[paramSym] = param
		}
		c.emit(OpMov, param, pkt, 0, 0)
		continues = append(continues, c.condJumps(lam.Body, false)...)
	}
	breaks := body(pkt)
	for _, at := range continues {
		c.patch(at)
	}
	back := c.emit(OpJmp, 0, 0, 0, 0)
	c.patchTo(back, loopStart)
	c.patch(jdone)
	for _, at := range breaks {
		c.patch(at)
	}
}

// queueTop returns a vreg holding the first matching packet (0 = NULL).
func (c *comp) queueTop(sc *types.Scan) int {
	res := c.imm(0)
	c.queueScan(sc, func(pkt int) []int {
		c.emit(OpMov, res, pkt, 0, 0)
		return []int{c.emit(OpJmp, 0, 0, 0, 0)}
	})
	return res
}

// queueCount returns a vreg holding the number of matching packets.
func (c *comp) queueCount(sc *types.Scan) int {
	n := c.imm(0)
	one := c.imm(1)
	c.queueScan(sc, func(int) []int {
		c.emit(OpAdd, n, n, one, 0)
		return nil
	})
	return n
}

// queueBytes returns a vreg holding the byte total of matching packets.
func (c *comp) queueBytes(sc *types.Scan) int {
	n := c.imm(0)
	c.queueScan(sc, func(pkt int) []int {
		sz := c.newv()
		c.emit(OpPktProp, sz, pkt, 0, int64(runtime.PktSize))
		c.emit(OpAdd, n, n, sz, 0)
		return nil
	})
	return n
}

// queueMinMax selects the packet with minimal/maximal key.
func (c *comp) queueMinMax(e *lang.MemberExpr, m *types.Member) int {
	lam := e.Args[0].(*lang.Lambda)
	paramSym := c.info.Defs[lam]
	param := c.newv()
	c.syms[paramSym] = param

	best := c.imm(0)
	bestKey := c.imm(0)
	zero := c.imm(0)
	c.queueScan(m.Scan, func(pkt int) []int {
		c.emit(OpMov, param, pkt, 0, 0)
		key := c.intExpr(lam.Body)
		isNull := c.newv()
		c.emit(OpEq, isNull, best, zero, 0)
		jTake := c.emit(OpJnz, 0, isNull, 0, 0)
		better := c.newv()
		if m.Kind == types.MemberMax {
			c.emit(OpGt, better, key, bestKey, 0)
		} else {
			c.emit(OpLt, better, key, bestKey, 0)
		}
		jSkip := c.emit(OpJz, 0, better, 0, 0)
		c.patch(jTake)
		c.emit(OpMov, best, pkt, 0, 0)
		c.emit(OpMov, bestKey, key, 0, 0)
		c.patch(jSkip)
		return nil
	})
	return best
}
