package analysis

import (
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// analyzer carries the state of the one walk over the checked program.
type analyzer struct {
	info  *types.Info
	rep   *Report
	facts *Facts

	syms     []symRec // by Symbol.Slot
	popDecls []popDecl
	loops    []loopFrame
	pushes   []loopPush

	// reachable is false while walking provably dead code; diagnostics
	// and push accounting are disabled there so a dead branch does not
	// generate follow-on noise. unreached is its quiescence
	// counterpart: a formula over substrate facts under which the
	// current statement is not reached.
	reachable bool
	unreached dnf
	// cert is the quiescence certificate so far: the product of every
	// effect's kill condition.
	cert    dnf
	sawPush bool
	sawRQ   bool

	// condDepth counts enclosing IF branches. A GSET at depth zero runs
	// on every execution — FOREACH does not guard it, since a loop body
	// still executes whenever subflows exist — which is the shape the
	// global-write-storm rule flags.
	condDepth int

	unreachableReported bool
}

// symRec is what the walk knows of one variable: its abstract value,
// whether a PUSH or DROP consumed it, whether it was read through a
// per-subflow property, the loops it varies across, and the facts of
// its initializer (a queue variable's per-packet chain cost; a
// subflow list's set, a reference's nullness, a bool's condition).
type symRec struct {
	val      absVal
	consumed bool
	distinct bool
	deps     uint64
	perPkt   poly
	list     sbfSet
	null     dnf
	cond     cond
}

// result is what the walk knows of one expression: its abstract value,
// the steps evaluating it costs, its quiescence facts and what it reads.
// perPkt is set on queue expressions: the cost of the FILTER chain's
// predicates on one packet, charged by the scan that consumes the chain.
type result struct {
	absVal
	cost   poly
	perPkt poly
	cond   cond
	null   dnf
	list   sbfSet
	refs   refSet
}

// refSet summarizes what an expression reads: the loops (by nesting
// depth) one of its variables varies across, registers and globals (one
// bit each), whether it names a packet queue, and whether it pops.
type refSet struct {
	deps    uint64
	regs    uint64
	globals uint64
	queues  bool
	pop     bool
}

func (r refSet) or(s refSet) refSet {
	return refSet{r.deps | s.deps, r.regs | s.regs, r.globals | s.globals, r.queues || s.queues, r.pop || s.pop}
}

type popDecl struct {
	sym *types.Symbol
	pos lang.Pos
}

// loopFrame is one enclosing FOREACH. writes collects, as its body is
// walked, the registers and globals the body SETs and whether it pops;
// pushes indexes the first loopPush recorded inside it.
type loopFrame struct {
	stmt   *lang.ForeachStmt
	writes refSet
	pushes int
}

// loopPush is a reachable PUSH inside a loop, awaiting the
// loop-invariance check that runs when each enclosing loop's walk ends;
// inv is the outermost loop it is invariant across.
type loopPush struct {
	refs refSet
	at   lang.Pos
	inv  *lang.ForeachStmt
}

// depBit is the refSet.deps bit of the loop at the given nesting depth;
// loops nested deeper than 63 share the last bit, which can only make
// a loop-invariance diagnostic go silent.
func depBit(depth int) uint64 { return 1 << min(depth, 63) }

// loopDeps is the deps mask of every enclosing loop (all ones once the
// shared last bit is among them).
func (a *analyzer) loopDeps() uint64 {
	if len(a.loops) == 0 {
		return 0
	}
	return depBit(len(a.loops)-1)<<1 - 1
}

// pathState is the per-path duplicate-push tracking: pushed maps a
// canonical "target|packet" key to its first occurrence.
type pathState struct {
	pushed map[string]pushRec
}

type pushRec struct {
	pos lang.Pos
	// volatile entries reference a queue entity directly; any POP
	// changes what Q.TOP etc. denotes, so they are invalidated.
	volatile bool
}

func newPathState() *pathState {
	return &pathState{pushed: make(map[string]pushRec)}
}

func (ps *pathState) clone() *pathState {
	out := &pathState{pushed: make(map[string]pushRec, len(ps.pushed))}
	for k, v := range ps.pushed {
		out.pushed[k] = v
	}
	return out
}

func (ps *pathState) dropVolatile() {
	for k, v := range ps.pushed {
		if v.volatile {
			delete(ps.pushed, k)
		}
	}
}

// diag records a diagnostic unless the walker is inside dead code.
func (a *analyzer) diag(rule string, pos lang.Pos, format string, args ...any) {
	if !a.reachable {
		return
	}
	a.forceDiag(rule, pos, format, args...)
}

func (a *analyzer) forceDiag(rule string, pos lang.Pos, format string, args ...any) {
	a.rep.Diagnostics = append(a.rep.Diagnostics, Diagnostic{
		Rule:     rule,
		Severity: RuleSeverity[rule],
		Line:     pos.Line,
		Col:      pos.Col,
		Message:  sprintf(format, args...),
	})
}

// run is the walk: value analysis, reachability, the per-statement
// rules, the step bound and the quiescence certificate, followed by
// the whole-program rules. It returns the program's step bound.
func (a *analyzer) run() poly {
	a.syms = make([]symRec, a.info.NumSlots)
	for i := range a.syms {
		a.syms[i].val = absVal{iv: fullRange}
	}
	a.reachable = true
	a.cert = dnfTrue
	_, cost := a.block(a.info.Prog.Stmts, newPathState(), constPoly(1))

	pos := a.info.Prog.Position()
	if !a.sawPush {
		a.forceDiag(RuleNoPush, pos,
			"no PUSH is reachable on any path: this scheduler can never send a packet")
	}
	for _, pd := range a.popDecls {
		if !a.syms[pd.sym.Slot].consumed {
			a.forceDiag(RulePopDiscard, pd.pos,
				"popped packet %s is never pushed or dropped; the POP only hides it for the rest of this execution", pd.sym.Name)
		}
	}
	if !a.sawRQ {
		a.forceDiag(RuleRQIgnored, pos,
			"scheduler never consults the reinjection queue RQ; packets suspected lost are not reinjected by this program")
	}
	// Spill code, and the hoisted-constant preamble (see spillFactor).
	bound := cost.mul(spillPoly)
	static, _ := satMul(cost.eval(1, 1), spillFactor)
	bound[term{}], _ = satAdd(bound[term{}], static)
	return bound
}

// block walks a statement list, tracking RETURN termination, and adds
// each statement's cost to total. Statements after a RETURN are walked
// as dead code; the certificate assumes them reached, which is sound.
func (a *analyzer) block(stmts []lang.Stmt, ps *pathState, total poly) (terminated bool, cost poly) {
	for _, s := range stmts {
		if terminated {
			if !a.unreachableReported && a.reachable {
				a.diag(RuleUnreachable, s.Position(),
					"statement is unreachable: every path through the preceding statements has returned")
				a.unreachableReported = true
			}
			saved := a.reachable
			a.reachable = false
			_, c := a.stmt(s, ps)
			a.reachable = saved
			total = total.add(c)
			continue
		}
		t, c := a.stmt(s, ps)
		total = total.add(c)
		terminated = t
	}
	return terminated, total
}

// kill multiplies one effect's kill condition, taken under the current
// unreached formula, into the certificate.
func (a *analyzer) kill(d dnf) { a.cert = andD(a.cert, orD(a.unreached, d)) }

// effects records the writes of one statement in every enclosing
// loop's summary.
func (a *analyzer) effects(w refSet) {
	for i := range a.loops {
		a.loops[i].writes = a.loops[i].writes.or(w)
	}
}

// stmt walks one statement; the result reports whether every path
// through it ends in RETURN, and its worst-case step cost.
func (a *analyzer) stmt(s lang.Stmt, ps *pathState) (terminated bool, cost poly) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		return a.block(s.Stmts, ps, constPoly(1))

	case *lang.ReturnStmt:
		return true, constPoly(1)

	case *lang.VarDecl:
		v := a.expr(s.Init)
		a.popEffect(s.Init, v.refs, ps)
		if sym := a.info.Defs[s]; sym != nil {
			// A variable derived from a POP differs on every iteration
			// of every enclosing loop.
			deps := v.refs.deps
			if v.refs.pop {
				deps = a.loopDeps()
			}
			a.syms[sym.Slot] = symRec{val: v.absVal, deps: deps, perPkt: v.perPkt, list: v.list, null: v.null, cond: v.cond}
			if sym.Type == types.Packet && a.rootPop(s.Init) != nil && a.reachable {
				a.popDecls = append(a.popDecls, popDecl{sym: sym, pos: s.VarPos})
			}
		}
		return false, v.cost.addConst(2)

	case *lang.SetStmt:
		v := a.expr(s.Value)
		if s.Reg >= 0 && s.Reg < runtime.NumRegisters {
			a.effects(refSet{regs: 1 << s.Reg})
		}
		a.kill(dnf{}) // reached, a write always happens
		return false, v.cost.addConst(2)

	case *lang.GSetStmt:
		v := a.expr(s.Value)
		if a.condDepth == 0 {
			a.diag(RuleGlobalWriteStorm, s.SetPos,
				"GSET(G%d, ...) executes unconditionally on every scheduling decision: each write publishes a new shared-state epoch to all connections; guard it with an IF", s.Reg+1)
		}
		if s.Reg >= 0 && s.Reg < runtime.NumGlobals {
			a.effects(refSet{globals: 1 << s.Reg})
		}
		a.kill(dnf{}) // reached, a write always happens
		return false, v.cost.addConst(2)

	case *lang.IfStmt:
		c := a.expr(s.Cond)
		cv := c.b
		if cv == bFalse {
			a.diag(RuleDeadBranch, s.Cond.Position(),
				"IF condition is always FALSE; the branch body never executes")
			if a.reachable {
				a.facts.DeadIfs = append(a.facts.DeadIfs, DeadIf{If: s, DeadThen: true})
			}
		}
		if cv == bTrue && s.Else != nil {
			a.diag(RuleDeadBranch, s.Else.Position(),
				"IF condition is always TRUE; the ELSE branch never executes")
			if a.reachable {
				a.facts.DeadIfs = append(a.facts.DeadIfs, DeadIf{If: s, DeadThen: false})
			}
		}
		// Branch cost is summed, not maxed: sound and keeps the
		// polynomial representation closed.
		saved, savedU := a.reachable, a.unreached
		a.condDepth++
		a.reachable, a.unreached = saved && cv != bFalse, orD(savedU, c.cond.f)
		thenTerm, total := a.block(s.Then.Stmts, ps.clone(), constPoly(ifStep).add(c.cost))
		var elseTerm bool
		if s.Else != nil {
			a.reachable, a.unreached = saved && cv != bTrue, orD(savedU, c.cond.t)
			var ec poly
			elseTerm, ec = a.stmt(s.Else, ps.clone())
			total = total.add(ec)
		}
		a.condDepth--
		a.reachable, a.unreached = saved, savedU
		switch {
		case cv == bTrue:
			return thenTerm, total
		case cv == bFalse:
			return s.Else != nil && elseTerm, total
		default:
			return thenTerm && s.Else != nil && elseTerm, total
		}

	case *lang.ForeachStmt:
		it := a.expr(s.Iter)
		if it.empty == bTrue {
			a.diag(RuleDeadBranch, s.Iter.Position(),
				"FOREACH iterates a provably empty list; the body never executes")
		}
		if sym := a.info.Defs[s]; sym != nil {
			a.syms[sym.Slot] = symRec{val: refVal(nNonNull), deps: depBit(len(a.loops))}
		}
		saved, savedU := a.reachable, a.unreached
		a.reachable, a.unreached = saved && it.empty != bTrue, orD(savedU, none(it.list))
		a.loops = append(a.loops, loopFrame{stmt: s, pushes: len(a.pushes)})
		// forEachSubflowIdx: each iteration tests membership (OpJbc)
		// and makes the loop variable (OpSbfRef).
		_, body := a.block(s.Body.Stmts, ps.clone(), constPoly(loopStep+2))
		a.endLoop()
		a.reachable, a.unreached = saved, savedU
		return false, it.cost.add(sTerm.mul(body)).addConst(loopSetup)

	case *lang.PushStmt:
		t := a.expr(s.Target)
		v := a.expr(s.Arg)
		if a.reachable {
			a.sawPush = true
		}
		a.consume(s.Arg)
		a.popEffect(s.Arg, v.refs, ps)
		refs := t.refs.or(v.refs)
		if !v.refs.pop {
			key := lang.FormatExpr(s.Target) + "\x00" + lang.FormatExpr(s.Arg)
			if prev, dup := ps.pushed[key]; dup {
				a.diag(RuleDupPush, s.PushAt,
					"duplicate PUSH: the same packet is pushed to the same subflow twice on this path (first at %s)", prev.pos)
			} else {
				ps.pushed[key] = pushRec{pos: s.PushAt, volatile: refs.queues}
			}
		}
		if len(a.loops) > 0 && a.reachable && !refs.pop {
			a.pushes = append(a.pushes, loopPush{refs: refs, at: s.PushAt})
		}
		a.kill(orD(t.null, v.null))
		return false, t.cost.add(v.cost).addConst(2)

	case *lang.DropStmt:
		v := a.expr(s.Arg)
		a.consume(s.Arg)
		a.popEffect(s.Arg, v.refs, ps)
		a.kill(v.null)
		return false, v.cost.addConst(2)
	}
	return false, constPoly(1)
}

// popEffect accounts for a POP in an effect position (VAR initializer,
// PUSH or DROP argument, the only places the checker admits one): it
// changes what queue heads denote, makes the enclosing loops' bodies
// pop, and emits nothing when its base queue is empty, whatever the
// statement around it does.
func (a *analyzer) popEffect(e lang.Expr, refs refSet, ps *pathState) {
	if !refs.pop {
		return
	}
	ps.dropVolatile()
	a.effects(refSet{pop: true})
	if m := a.rootPop(e); m != nil && m.Scan != nil {
		a.kill(emptyQ(m.Scan.Queue))
	}
}

// consume marks the variable a PUSH or DROP argument names as used.
func (a *analyzer) consume(e lang.Expr) {
	if id, ok := e.(*lang.Ident); ok {
		if sym := a.info.Uses[id]; sym != nil {
			a.syms[sym.Slot].consumed = true
		}
	}
}

// endLoop closes the innermost FOREACH: each PUSH recorded inside it
// whose target and packet read nothing the loop changes — no variable
// that varies across it, no register or global its body writes, no
// queue when its body pops — is invariant across it. Once the
// outermost loop closes, every such PUSH is reported against the
// outermost loop it is invariant across.
func (a *analyzer) endLoop() {
	depth := len(a.loops) - 1
	fr := a.loops[depth]
	a.loops = a.loops[:depth]
	for i := fr.pushes; i < len(a.pushes); i++ {
		r := a.pushes[i].refs
		if r.deps&depBit(depth) == 0 && r.regs&fr.writes.regs == 0 &&
			r.globals&fr.writes.globals == 0 && !(r.queues && fr.writes.pop) {
			a.pushes[i].inv = fr.stmt
		}
	}
	if depth > 0 {
		return
	}
	for _, p := range a.pushes {
		if p.inv != nil {
			a.forceDiag(RuleDupPush, p.at,
				"PUSH target and packet are invariant across the FOREACH at %s: every iteration re-pushes the same packet to the same subflow", p.inv.ForPos)
		}
	}
	a.pushes = a.pushes[:0]
}

// rootPop returns e's resolution when e is exactly queue.POP() (the
// only shape the type checker admits for POP), nil otherwise.
func (a *analyzer) rootPop(e lang.Expr) *types.Member {
	if m, ok := e.(*lang.MemberExpr); ok {
		if res := a.info.Members[m]; res != nil && res.Kind == types.MemberPop {
			return res
		}
	}
	return nil
}

// ---- Expressions ----

// leaf is the result of an expression with no subexpressions.
func leaf(v absVal) result { return result{absVal: v, cost: constPoly(1)} }

func (a *analyzer) expr(e lang.Expr) result {
	switch e := e.(type) {
	case *lang.NumberLit:
		return leaf(intVal(single(e.Val)))
	case *lang.BoolLit:
		r := leaf(boolV(boolOf(e.Val)))
		if e.Val {
			r.cond.t = dnfTrue
		} else {
			r.cond.f = dnfTrue
		}
		return r
	case *lang.NullLit:
		return leaf(refVal(nNull))
	case *lang.RegExpr:
		r := leaf(intVal(fullRange))
		if e.Index >= 0 && e.Index < runtime.NumRegisters {
			r.refs.regs = 1 << e.Index
		}
		return r
	case *lang.GlobalExpr:
		r := leaf(intVal(fullRange))
		if e.Index >= 0 && e.Index < runtime.NumGlobals {
			r.refs.globals = 1 << e.Index
		}
		return r
	case *lang.Ident:
		r := leaf(absVal{iv: fullRange})
		if sym := a.info.Uses[e]; sym != nil {
			s := &a.syms[sym.Slot]
			r.absVal, r.perPkt, r.list, r.null, r.cond = s.val, s.perPkt, s.list, s.null, s.cond
			r.refs.deps = s.deps
		}
		return r
	case *lang.EntityExpr:
		if e.Kind == lang.EntityRQ {
			a.sawRQ = true
		}
		if e.Kind == lang.EntitySubflows {
			return result{absVal: listVal(bUnknown), cost: subflowsCost, list: sbfSet{exact: true}}
		}
		r := leaf(listVal(bUnknown))
		r.refs.queues = true
		return r
	case *lang.UnaryExpr:
		x := a.expr(e.X)
		r := result{cost: x.cost.addConst(1), refs: x.refs}
		if e.Op == lang.NOT {
			r.absVal = boolV(notB(x.b))
			r.cond = cond{t: x.cond.f, f: x.cond.t}
		} else {
			r.absVal = intVal(negIV(x.iv))
		}
		return r
	case *lang.BinaryExpr:
		return a.binary(e)
	case *lang.Lambda:
		// Only reached on type errors; harmless.
		b := a.expr(e.Body)
		return result{absVal: absVal{iv: fullRange}, cost: b.cost.addConst(1), refs: b.refs}
	case *lang.MemberExpr:
		return a.member(e)
	}
	return leaf(absVal{iv: fullRange})
}

func (a *analyzer) binary(e *lang.BinaryExpr) result {
	x := a.expr(e.X)
	y := a.expr(e.Y)
	step := int64(1)
	if e.Op == lang.AND || e.Op == lang.OR {
		step = boolOpStep
	}
	r := result{cost: x.cost.add(y.cost).addConst(step), refs: x.refs.or(y.refs)}
	r.absVal = a.binaryVal(e, x.absVal, y.absVal)
	switch e.Op {
	case lang.AND:
		r.cond = cond{t: andD(x.cond.t, y.cond.t), f: orD(x.cond.f, y.cond.f)}
	case lang.OR:
		r.cond = cond{t: orD(x.cond.t, y.cond.t), f: andD(x.cond.f, y.cond.f)}
	case lang.EQ, lang.NEQ:
		var null dnf
		if _, ok := e.Y.(*lang.NullLit); ok {
			null = x.null
		} else if _, ok := e.X.(*lang.NullLit); ok {
			null = y.null
		}
		if e.Op == lang.EQ {
			r.cond.t = null
		} else {
			r.cond.f = null
		}
	}
	return r
}

func (a *analyzer) binaryVal(e *lang.BinaryExpr, x, y absVal) absVal {
	// NULL comparisons resolve through nullness, not intervals.
	_, xNull := e.X.(*lang.NullLit)
	_, yNull := e.Y.(*lang.NullLit)
	if (e.Op == lang.EQ || e.Op == lang.NEQ) && (xNull || yNull) && !(xNull && yNull) {
		v := x
		if xNull {
			v = y
		}
		var eq boolVal
		switch v.null {
		case nNull:
			eq = bTrue
		case nNonNull:
			eq = bFalse
		}
		if e.Op == lang.NEQ {
			eq = notB(eq)
		}
		return boolV(eq)
	}

	switch e.Op {
	case lang.PLUS:
		a.checkConstOverflow(e, x.iv, y.iv, satAdd)
		return intVal(addIV(x.iv, y.iv))
	case lang.MINUS:
		a.checkConstOverflow(e, x.iv, y.iv, func(p, q int64) (int64, bool) {
			return satAdd(p, -q)
		})
		return intVal(subIV(x.iv, y.iv))
	case lang.STAR:
		a.checkConstOverflow(e, x.iv, y.iv, satMul)
		return intVal(mulIV(x.iv, y.iv))
	case lang.SLASH, lang.PERCENT:
		if yc, ok := y.iv.isConst(); ok {
			if yc == 0 {
				a.diag(RuleDivZero, e.X.Position(),
					"division by a constant zero: the language defines x/0 = 0, so this expression is always 0")
				return intVal(single(0))
			}
			if xc, ok := x.iv.isConst(); ok {
				if e.Op == lang.SLASH {
					return intVal(single(xc / yc))
				}
				return intVal(single(xc % yc))
			}
		}
		if x.iv.lo >= 0 && y.iv.lo >= 0 {
			return intVal(nonNegRange)
		}
		return intVal(fullRange)
	case lang.LT:
		return boolV(ltIV(x.iv, y.iv))
	case lang.LTE:
		return boolV(leIV(x.iv, y.iv))
	case lang.GT:
		return boolV(ltIV(y.iv, x.iv))
	case lang.GTE:
		return boolV(leIV(y.iv, x.iv))
	case lang.EQ, lang.NEQ:
		eq := bUnknown
		if a.info.ExprTypes[e.X] == types.Int {
			eq = eqIV(x.iv, y.iv)
		} else if x.null == nNull && y.null == nNull {
			eq = bTrue
		}
		if e.Op == lang.NEQ {
			eq = notB(eq)
		}
		return boolV(eq)
	case lang.AND:
		return boolV(andB(x.b, y.b))
	case lang.OR:
		return boolV(orB(x.b, y.b))
	}
	return absVal{iv: fullRange}
}

// checkConstOverflow flags constant arithmetic that wraps int64. Only
// definite (both operands pinned) overflow is reported.
func (a *analyzer) checkConstOverflow(e *lang.BinaryExpr, x, y interval, op func(int64, int64) (int64, bool)) {
	xc, xok := x.isConst()
	yc, yok := y.isConst()
	if !xok || !yok {
		return
	}
	if _, ovf := op(xc, yc); ovf {
		a.diag(RuleOverflow, e.X.Position(),
			"constant arithmetic overflows int64; registers wrap at runtime")
	}
}

// lambda walks the lambda argument of FILTER, MIN or MAX (the checker
// admits exactly one); its parameter, an iteration variable, is never
// NULL.
func (a *analyzer) lambda(e *lang.MemberExpr) (*lang.Lambda, result) {
	lam := e.Args[0].(*lang.Lambda)
	if sym := a.info.Defs[lam]; sym != nil {
		a.syms[sym.Slot].val = refVal(nNonNull)
	}
	return lam, a.expr(lam.Body)
}

// member evaluates a member access. Costs: a queue scan (TOP, POP,
// COUNT, BYTES, EMPTY, MIN, MAX) through a FILTER chain visits up to N
// packets and pays every predicate on each; on the bare queue TOP, POP
// and EMPTY stop at the first packet. Queue filters are lazy: naming
// the chain is free and its predicates ride up in perPkt to the scan.
// Subflow-list filters, list MIN/MAX and GET walk the list in a
// forEachSubflowIdx loop.
func (a *analyzer) member(e *lang.MemberExpr) result {
	m := a.info.Members[e]
	recv := a.expr(e.Recv)
	r := result{refs: recv.refs, absVal: absVal{iv: fullRange}}
	if id, ok := e.Recv.(*lang.Ident); ok {
		// A read the nondeterministic-rank rule counts: any property of
		// a subflow but the connection-wide MSS.
		if sym := a.info.Uses[id]; sym != nil && (m == nil || m.Kind != types.MemberSbfInt || m.SbfInt != runtime.SbfMSS) {
			a.syms[sym.Slot].distinct = true
		}
	}
	if m == nil {
		for _, arg := range e.Args {
			r.refs = r.refs.or(a.expr(arg).refs)
		}
		r.cost = recv.cost.addConst(1)
		return r
	}
	elemNull := func() nullness {
		if recv.empty == bTrue {
			return nNull
		}
		return nUnknown
	}
	if m.Kind == types.MemberPop {
		r.refs.pop = true
	}
	switch m.Kind {
	case types.MemberFilter:
		lam, body := a.lambda(e)
		r.refs = r.refs.or(body.refs)
		empty := recv.empty
		if body.b == bFalse {
			what := "subflow list"
			if m.RecvType == types.PacketQueue {
				what = "packet queue"
			}
			a.diag(RuleFalseFilter, e.NamePos,
				"FILTER predicate is always FALSE: the filtered %s is provably empty", what)
			empty = bTrue
		}
		r.absVal = listVal(empty)
		if m.RecvType == types.PacketQueue {
			r.cost = recv.cost.addConst(1)
			r.perPkt = recv.perPkt.add(body.cost.addConst(filterStep))
			return r
		}
		r.list = recv.list
		a.filter(lam.Body, a.info.Defs[lam], &r.list)
		// listMask: the mask's OpMovImm; per subflow OpJbc, OpSbfRef,
		// the predicate's branch and OpBitSet.
		r.cost = recv.cost.add(sTerm.mul(body.cost.addConst(loopStep + 4))).addConst(1 + loopSetup)
		return r

	case types.MemberMin, types.MemberMax:
		lam, body := a.lambda(e)
		r.refs = r.refs.or(body.refs)
		r.absVal = refVal(elemNull())
		// Per candidate, queueMinMax and listMinMax pay OpMov (or
		// OpJbc, OpSbfRef and OpMovImm), the NULL test OpEq/OpJnz, the
		// comparison OpLt/OpJz and two OpMov; listMinMax's two result
		// OpMovImm sit outside the loop.
		if m.Scan != nil {
			r.null = emptyQ(m.Scan.Queue)
			r.cost = recv.cost.add(nTerm.mul(recv.perPkt.add(body.cost).addConst(scanStep + 7))).addConst(scanSetup)
			return r
		}
		if sym := a.info.Defs[lam]; sym != nil && !a.syms[sym.Slot].distinct {
			a.diag(RuleNondeterministicRank, e.NamePos,
				"%s rank cannot distinguish the subflows (it never reads a per-subflow property of %s): every candidate ranks equal and the pick falls to an unspecified tie-break", e.Name, lam.Param)
		}
		r.null = none(recv.list)
		r.cost = recv.cost.add(sTerm.mul(body.cost.addConst(loopStep + 9))).addConst(2 + loopSetup)
		return r
	}

	switch m.Kind {
	case types.MemberTop, types.MemberPop:
		r.absVal = refVal(elemNull())
		r.null = emptyQ(m.Scan.Queue)
	case types.MemberEmpty:
		b := bUnknown
		if recv.empty == bTrue {
			b = bTrue
		}
		r.absVal = boolV(b)
		if m.Scan != nil {
			r.cond.t = emptyQ(m.Scan.Queue)
		} else {
			r.cond.t = none(recv.list)
			if recv.list.exact {
				r.cond.f = lit(runtime.SomeFact(recv.list.atoms), 0)
			}
		}
	case types.MemberCount:
		switch {
		case recv.empty == bTrue:
			r.absVal = intVal(single(0))
		case m.RecvType == types.SubflowList:
			r.absVal = intVal(interval{0, runtime.MaxSubflows})
		default:
			r.absVal = intVal(nonNegRange)
		}
	case types.MemberGet:
		r.absVal = refVal(nUnknown)
		r.null = none(recv.list)
	case types.MemberSbfInt:
		r.absVal = intVal(nonNegRange)
	case types.MemberPktInt:
		// PROP is an application-set intent (any int64); LAST_SENT_US
		// is -1 for never-sent packets. Everything else is
		// non-negative by construction of the environment model.
		if m.PktInt != runtime.PktProp && m.PktInt != runtime.PktLastSentUS {
			r.absVal = intVal(nonNegRange)
		}
	case types.MemberSbfBool, types.MemberHasWindowFor, types.MemberSentOn:
		r.absVal = boolV(bUnknown)
	}
	if m.Scan != nil {
		// COUNT and BYTES walk even the bare queue, with an OpAdd (and
		// BYTES an OpPktProp) a packet.
		var work int64
		switch m.Kind {
		case types.MemberCount:
			work = 1
		case types.MemberBytes:
			work = 2
		}
		if recv.perPkt == nil && work == 0 {
			r.cost = recv.cost.addConst(scanSetup + scanStep)
		} else {
			r.cost = recv.cost.add(nTerm.mul(recv.perPkt.addConst(scanStep + work))).addConst(scanSetup)
		}
		return r
	}
	// Property reads, HAS_WINDOW_FOR, SENT_ON and subflow-list
	// EMPTY/COUNT: constant work plus argument cost. GET walks the list.
	if m.Kind == types.MemberGet {
		r.cost = recv.cost.add(getCost)
	} else {
		r.cost = recv.cost.addConst(2)
	}
	for _, arg := range e.Args {
		v := a.expr(arg)
		r.refs = r.refs.or(v.refs)
		r.cost = r.cost.add(v.cost)
	}
	return r
}
