package analysis

import (
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// analyzer carries the state of one analysis run: abstract values per
// symbol, consumption tracking for pop-discard, and the enclosing-loop
// stack for the loop-invariant duplicate-push rule.
type analyzer struct {
	info  *types.Info
	opts  Options
	rep   *Report
	facts *Facts

	vals     map[*types.Symbol]absVal
	consumed map[*types.Symbol]bool
	popDecls []popDecl
	loops    []*loopFrame

	// reachable is false while walking provably dead code; diagnostics
	// and push accounting are disabled there so a dead branch does not
	// generate follow-on noise.
	reachable bool
	sawPush   bool
	sawRQ     bool

	// condDepth counts enclosing IF branches. A GSET at depth zero runs
	// on every execution — FOREACH does not guard it, since a loop body
	// still executes whenever subflows exist — which is the shape the
	// global-write-storm rule flags.
	condDepth int

	unreachableReported bool
}

type popDecl struct {
	sym *types.Symbol
	pos lang.Pos
}

// loopFrame describes one enclosing FOREACH for the loop-invariance
// check: deps is the set of symbols whose value changes across
// iterations (the loop variable and anything derived from it or from a
// POP), setRegs the registers the body mutates, bodyPops whether the
// body pops any queue (which makes queue-derived packet expressions
// iteration-dependent).
type loopFrame struct {
	stmt       *lang.ForeachStmt
	deps       map[*types.Symbol]bool
	setRegs    [runtime.NumRegisters]bool
	setGlobals [runtime.NumGlobals]bool
	bodyPops   bool
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

// run is the main walk: value analysis, reachability, and the
// per-statement rules, followed by the whole-program rules.
func (a *analyzer) run() {
	a.reachable = true
	a.block(a.info.Prog.Stmts, newPathState())

	pos := a.info.Prog.Position()
	if !a.sawPush {
		a.forceDiag(RuleNoPush, pos,
			"no PUSH is reachable on any path: this scheduler can never send a packet")
	}
	for _, pd := range a.popDecls {
		if !a.consumed[pd.sym] {
			a.forceDiag(RulePopDiscard, pd.pos,
				"popped packet %s is never pushed or dropped; the POP only hides it for the rest of this execution", pd.sym.Name)
		}
	}
	if !a.sawRQ {
		a.forceDiag(RuleRQIgnored, pos,
			"scheduler never consults the reinjection queue RQ; packets suspected lost are not reinjected by this program")
	}
}

// block walks a statement list, tracking RETURN termination.
func (a *analyzer) block(stmts []lang.Stmt, ps *pathState) (terminated bool) {
	for _, s := range stmts {
		if terminated {
			if !a.unreachableReported && a.reachable {
				a.diag(RuleUnreachable, s.Position(),
					"statement is unreachable: every path through the preceding statements has returned")
				a.unreachableReported = true
			}
			saved := a.reachable
			a.reachable = false
			a.stmt(s, ps)
			a.reachable = saved
			continue
		}
		if a.stmt(s, ps) {
			terminated = true
		}
	}
	return terminated
}

// stmt walks one statement; the result reports whether every path
// through it ends in RETURN.
func (a *analyzer) stmt(s lang.Stmt, ps *pathState) (terminated bool) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		return a.block(s.Stmts, ps)

	case *lang.ReturnStmt:
		return true

	case *lang.VarDecl:
		v := a.expr(s.Init)
		sym := a.info.Defs[s]
		if sym != nil {
			a.vals[sym] = v
		}
		r := a.exprRefs(s.Init)
		if r.pop {
			ps.dropVolatile()
			if sym != nil && sym.Type == types.Packet && a.isRootPop(s.Init) && a.reachable {
				a.popDecls = append(a.popDecls, popDecl{sym: sym, pos: s.VarPos})
			}
		}
		a.noteLoopDep(sym, r)
		return false

	case *lang.SetStmt:
		a.expr(s.Value)
		return false

	case *lang.GSetStmt:
		a.expr(s.Value)
		if a.condDepth == 0 {
			a.diag(RuleGlobalWriteStorm, s.SetPos,
				"GSET(G%d, ...) executes unconditionally on every scheduling decision: each write publishes a new shared-state epoch to all connections; guard it with an IF", s.Reg+1)
		}
		return false

	case *lang.IfStmt:
		cv := a.expr(s.Cond).b
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
		saved := a.reachable
		a.condDepth++
		a.reachable = saved && cv != bFalse
		thenTerm := a.block(s.Then.Stmts, ps.clone())
		a.reachable = saved && cv != bTrue
		var elseTerm bool
		if s.Else != nil {
			elseTerm = a.stmt(s.Else, ps.clone())
		}
		a.condDepth--
		a.reachable = saved
		switch {
		case cv == bTrue:
			return thenTerm
		case cv == bFalse:
			return s.Else != nil && elseTerm
		default:
			return thenTerm && s.Else != nil && elseTerm
		}

	case *lang.ForeachStmt:
		iv := a.expr(s.Iter)
		if iv.empty == bTrue {
			a.diag(RuleDeadBranch, s.Iter.Position(),
				"FOREACH iterates a provably empty list; the body never executes")
		}
		sym := a.info.Defs[s]
		frame := &loopFrame{stmt: s, deps: map[*types.Symbol]bool{sym: true}}
		a.prescanLoopBody(s.Body, frame)
		if sym != nil {
			a.vals[sym] = refVal(nNonNull)
		}
		saved := a.reachable
		a.reachable = saved && iv.empty != bTrue
		a.loops = append(a.loops, frame)
		a.block(s.Body.Stmts, ps.clone())
		a.loops = a.loops[:len(a.loops)-1]
		a.reachable = saved
		return false

	case *lang.PushStmt:
		a.expr(s.Target)
		a.expr(s.Arg)
		if a.reachable {
			a.sawPush = true
		}
		rt := a.exprRefs(s.Target)
		ra := a.exprRefs(s.Arg)
		if id, ok := s.Arg.(*lang.Ident); ok {
			if sym := a.info.Uses[id]; sym != nil {
				a.consumed[sym] = true
			}
		}
		if ra.pop {
			ps.dropVolatile()
		} else {
			key := lang.FormatExpr(s.Target) + "\x00" + lang.FormatExpr(s.Arg)
			if prev, dup := ps.pushed[key]; dup {
				a.diag(RuleDupPush, s.PushAt,
					"duplicate PUSH: the same packet is pushed to the same subflow twice on this path (first at %s)", prev.pos)
			} else {
				ps.pushed[key] = pushRec{pos: s.PushAt, volatile: rt.queues || ra.queues}
			}
		}
		for _, fr := range a.loops {
			if a.loopInvariant(rt, fr) && a.loopInvariant(ra, fr) && !ra.pop && !rt.pop {
				a.diag(RuleDupPush, s.PushAt,
					"PUSH target and packet are invariant across the FOREACH at %s: every iteration re-pushes the same packet to the same subflow", fr.stmt.ForPos)
				break
			}
		}
		return false

	case *lang.DropStmt:
		a.expr(s.Arg)
		if id, ok := s.Arg.(*lang.Ident); ok {
			if sym := a.info.Uses[id]; sym != nil {
				a.consumed[sym] = true
			}
		}
		if a.exprRefs(s.Arg).pop {
			ps.dropVolatile()
		}
		return false
	}
	return false
}

// noteLoopDep propagates loop-dependence: a variable derived from a
// loop-dependent symbol or from a POP differs across iterations.
func (a *analyzer) noteLoopDep(sym *types.Symbol, r refSet) {
	if sym == nil {
		return
	}
	for _, fr := range a.loops {
		if r.pop {
			fr.deps[sym] = true
			continue
		}
		for dep := range r.syms {
			if fr.deps[dep] {
				fr.deps[sym] = true
				break
			}
		}
	}
}

// loopInvariant reports whether an expression provably denotes the
// same value on every iteration of fr.
func (a *analyzer) loopInvariant(r refSet, fr *loopFrame) bool {
	for sym := range r.syms {
		if fr.deps[sym] {
			return false
		}
	}
	for i, used := range r.regs {
		if used && fr.setRegs[i] {
			return false
		}
	}
	for i, used := range r.globals {
		if used && fr.setGlobals[i] {
			return false
		}
	}
	if r.queues && fr.bodyPops {
		return false
	}
	return true
}

// prescanLoopBody collects the registers a loop body SETs and whether
// it pops any queue, before the body itself is walked.
func (a *analyzer) prescanLoopBody(b *lang.BlockStmt, fr *loopFrame) {
	var walkStmt func(s lang.Stmt)
	walkExpr := func(e lang.Expr) {
		if a.exprRefs(e).pop {
			fr.bodyPops = true
		}
	}
	walkStmt = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.BlockStmt:
			for _, inner := range s.Stmts {
				walkStmt(inner)
			}
		case *lang.IfStmt:
			for _, inner := range s.Then.Stmts {
				walkStmt(inner)
			}
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *lang.ForeachStmt:
			for _, inner := range s.Body.Stmts {
				walkStmt(inner)
			}
		case *lang.VarDecl:
			walkExpr(s.Init)
		case *lang.SetStmt:
			if s.Reg >= 0 && s.Reg < runtime.NumRegisters {
				fr.setRegs[s.Reg] = true
			}
		case *lang.GSetStmt:
			if s.Reg >= 0 && s.Reg < runtime.NumGlobals {
				fr.setGlobals[s.Reg] = true
			}
			walkExpr(s.Value)
		case *lang.PushStmt:
			walkExpr(s.Arg)
		case *lang.DropStmt:
			walkExpr(s.Arg)
		}
	}
	for _, inner := range b.Stmts {
		walkStmt(inner)
	}
}

// isRootPop reports whether e is exactly queue.POP() (the only shape
// the type checker admits for POP).
func (a *analyzer) isRootPop(e lang.Expr) bool {
	m, ok := e.(*lang.MemberExpr)
	if !ok {
		return false
	}
	res := a.info.Members[m]
	return res != nil && res.Kind == types.MemberPop
}

// checkRank implements nondeterministic-rank: a MIN/MAX selection
// over subflows is only meaningful when its rank can distinguish the
// candidates of one connection.
func (a *analyzer) checkRank(e *lang.MemberExpr) {
	if len(e.Args) != 1 {
		return
	}
	lam, ok := e.Args[0].(*lang.Lambda)
	if !ok {
		return
	}
	sym := a.info.Defs[lam]
	if sym == nil {
		return
	}
	if !a.rankDistinguishes(lam.Body, sym) {
		a.diag(RuleNondeterministicRank, e.NamePos,
			"%s rank cannot distinguish the subflows (it never reads a per-subflow property of %s): every candidate ranks equal and the pick falls to an unspecified tie-break", e.Name, lam.Param)
	}
}

// rankDistinguishes reports whether the rank expression reads sym
// through at least one property that varies per subflow. MSS is
// connection-wide — every subflow view is filled from the connection
// configuration — so a rank built only from it still ranks every
// candidate equal.
func (a *analyzer) rankDistinguishes(e lang.Expr, sym *types.Symbol) bool {
	switch e := e.(type) {
	case *lang.UnaryExpr:
		return a.rankDistinguishes(e.X, sym)
	case *lang.BinaryExpr:
		return a.rankDistinguishes(e.X, sym) || a.rankDistinguishes(e.Y, sym)
	case *lang.Lambda:
		return a.rankDistinguishes(e.Body, sym)
	case *lang.MemberExpr:
		if id, ok := e.Recv.(*lang.Ident); ok && a.info.Uses[id] == sym {
			m := a.info.Members[e]
			if m == nil || m.Kind != types.MemberSbfInt || m.SbfInt != runtime.SbfMSS {
				return true
			}
		}
		if a.rankDistinguishes(e.Recv, sym) {
			return true
		}
		for _, arg := range e.Args {
			if a.rankDistinguishes(arg, sym) {
				return true
			}
		}
		return false
	}
	return false
}

// ---- Reference collection ----

// refSet summarizes what an expression reads: symbols, registers,
// queue entities, and whether it pops.
type refSet struct {
	syms    map[*types.Symbol]bool
	regs    [runtime.NumRegisters]bool
	globals [runtime.NumGlobals]bool
	queues  bool
	pop     bool
}

func (a *analyzer) exprRefs(e lang.Expr) refSet {
	r := refSet{syms: make(map[*types.Symbol]bool)}
	a.collectRefs(e, &r)
	return r
}

func (a *analyzer) collectRefs(e lang.Expr, r *refSet) {
	switch e := e.(type) {
	case *lang.RegExpr:
		if e.Index >= 0 && e.Index < runtime.NumRegisters {
			r.regs[e.Index] = true
		}
	case *lang.GlobalExpr:
		if e.Index >= 0 && e.Index < runtime.NumGlobals {
			r.globals[e.Index] = true
		}
	case *lang.Ident:
		if sym := a.info.Uses[e]; sym != nil {
			r.syms[sym] = true
		}
	case *lang.EntityExpr:
		if e.Kind != lang.EntitySubflows {
			r.queues = true
		}
	case *lang.UnaryExpr:
		a.collectRefs(e.X, r)
	case *lang.BinaryExpr:
		a.collectRefs(e.X, r)
		a.collectRefs(e.Y, r)
	case *lang.Lambda:
		a.collectRefs(e.Body, r)
	case *lang.MemberExpr:
		if m := a.info.Members[e]; m != nil && m.Kind == types.MemberPop {
			r.pop = true
		}
		a.collectRefs(e.Recv, r)
		for _, arg := range e.Args {
			a.collectRefs(arg, r)
		}
	}
}

// ---- Abstract expression evaluation ----

func (a *analyzer) expr(e lang.Expr) absVal {
	switch e := e.(type) {
	case *lang.NumberLit:
		return intVal(single(e.Val))
	case *lang.BoolLit:
		return boolV(boolOf(e.Val))
	case *lang.NullLit:
		return refVal(nNull)
	case *lang.RegExpr:
		return intVal(fullRange)
	case *lang.GlobalExpr:
		return intVal(fullRange)
	case *lang.Ident:
		if sym := a.info.Uses[e]; sym != nil {
			if v, ok := a.vals[sym]; ok {
				return v
			}
			return unknownVal(sym.Type)
		}
		return absVal{iv: fullRange}
	case *lang.EntityExpr:
		if e.Kind == lang.EntityRQ {
			a.sawRQ = true
		}
		return listVal(bUnknown)
	case *lang.UnaryExpr:
		v := a.expr(e.X)
		if e.Op == lang.NOT {
			return boolV(notB(v.b))
		}
		return intVal(negIV(v.iv))
	case *lang.BinaryExpr:
		return a.binary(e)
	case *lang.Lambda:
		// Only reached on type errors; harmless.
		a.expr(e.Body)
		return absVal{iv: fullRange}
	case *lang.MemberExpr:
		return a.member(e)
	}
	return absVal{iv: fullRange}
}

func (a *analyzer) binary(e *lang.BinaryExpr) absVal {
	// NULL comparisons resolve through nullness, not intervals.
	_, xNull := e.X.(*lang.NullLit)
	_, yNull := e.Y.(*lang.NullLit)
	if (e.Op == lang.EQ || e.Op == lang.NEQ) && (xNull || yNull) && !(xNull && yNull) {
		other := e.X
		if xNull {
			other = e.Y
		}
		v := a.expr(other)
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

	x := a.expr(e.X)
	y := a.expr(e.Y)
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

func (a *analyzer) member(e *lang.MemberExpr) absVal {
	m := a.info.Members[e]
	recv := a.expr(e.Recv)
	if m == nil {
		for _, arg := range e.Args {
			a.expr(arg)
		}
		return absVal{iv: fullRange}
	}
	lambdaBody := func(elem types.Type) boolVal {
		if len(e.Args) != 1 {
			return bUnknown
		}
		lam, ok := e.Args[0].(*lang.Lambda)
		if !ok {
			return bUnknown
		}
		if sym := a.info.Defs[lam]; sym != nil {
			// Iteration variables are never NULL.
			a.vals[sym] = refVal(nNonNull)
		}
		return a.expr(lam.Body).b
	}
	elemNull := func() nullness {
		if recv.empty == bTrue {
			return nNull
		}
		return nUnknown
	}
	switch m.Kind {
	case types.MemberFilter:
		pred := lambdaBody(types.ElemType(m.RecvType))
		empty := recv.empty
		if pred == bFalse {
			what := "subflow list"
			if m.RecvType == types.PacketQueue {
				what = "packet queue"
			}
			a.diag(RuleFalseFilter, e.NamePos,
				"FILTER predicate is always FALSE: the filtered %s is provably empty", what)
			empty = bTrue
		}
		return listVal(empty)
	case types.MemberMin, types.MemberMax:
		lambdaBody(types.ElemType(m.RecvType))
		if m.RecvType == types.SubflowList {
			a.checkRank(e)
		}
		return refVal(elemNull())
	case types.MemberTop:
		return refVal(elemNull())
	case types.MemberPop:
		return refVal(elemNull())
	case types.MemberEmpty:
		b := bUnknown
		if recv.empty == bTrue {
			b = bTrue
		}
		return boolV(b)
	case types.MemberCount:
		if recv.empty == bTrue {
			return intVal(single(0))
		}
		if m.RecvType == types.SubflowList {
			return intVal(interval{0, runtime.MaxSubflows})
		}
		return intVal(nonNegRange)
	case types.MemberGet:
		for _, arg := range e.Args {
			a.expr(arg)
		}
		return refVal(nUnknown)
	case types.MemberSbfInt:
		return intVal(nonNegRange)
	case types.MemberPktInt:
		// PROP is an application-set intent (any int64); LAST_SENT_US
		// is -1 for never-sent packets. Everything else is
		// non-negative by construction of the environment model.
		if m.PktInt == runtime.PktProp || m.PktInt == runtime.PktLastSentUS {
			return intVal(fullRange)
		}
		return intVal(nonNegRange)
	case types.MemberSbfBool, types.MemberHasWindowFor, types.MemberSentOn:
		for _, arg := range e.Args {
			a.expr(arg)
		}
		return boolV(bUnknown)
	}
	return absVal{iv: fullRange}
}
