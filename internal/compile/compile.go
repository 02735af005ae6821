// Package compile is the ahead-of-time compilation back-end for ProgMP
// scheduler programs ("alternative 2" in §4.1 of the paper, which
// generates and compiles C functions). The Go analogue compiles the
// checked AST once into a tree of typed closures, so executions pay no
// AST dispatch, no name resolution, and no intermediate allocations:
// FILTER chains compile to fused iterators (late materialization), and
// FILTER→MIN/MAX collapses into a single loop.
package compile

import (
	"fmt"
	"sync"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// Compiled is a compiled scheduler program. It is safe for concurrent
// use with distinct environments; execution frames are pooled so a
// steady-state execution does not allocate.
type Compiled struct {
	stmts    []stmtFn
	numSlots int
	frames   sync.Pool
}

// New compiles a checked program.
func New(info *types.Info) *Compiled {
	c := &compiler{info: info}
	stmts := make([]stmtFn, len(info.Prog.Stmts))
	for i, s := range info.Prog.Stmts {
		stmts[i] = c.compileStmt(s)
	}
	cp := &Compiled{stmts: stmts, numSlots: info.NumSlots}
	cp.frames.New = func() any {
		return &state{slots: make([]value, cp.numSlots)}
	}
	return cp
}

// Exec runs one scheduler execution against env.
//
//progmp:hotpath
//progmp:deterministic
func (cp *Compiled) Exec(env *runtime.Env) {
	st := cp.frames.Get().(*state)
	st.env = env
	for _, s := range cp.stmts {
		//progmp:ignore hotpath statement closures are compiled cold; bodies use the checked Env API and are covered by TestExecZeroAllocSteadyState
		if s(st) {
			break
		}
	}
	st.env = nil
	for i := range st.slots {
		st.slots[i] = value{}
	}
	for i := range st.arena {
		st.arena[i] = nil
	}
	st.arena = st.arena[:0]
	cp.frames.Put(st)
}

// value is a slot value; exactly one field is active per static type.
type value struct {
	i    int64
	b    bool
	pkt  *runtime.PacketView
	sbf  *runtime.SubflowView
	list []*runtime.SubflowView
}

// scan is a compiled types.Scan: the base queue and its fused filter
// chain, composed once and shared by all executions. notSentOn is the
// compiled Scan.NotSentOn, nil when the chain has none.
type scan struct {
	id        runtime.QueueID
	preds     []predFn
	notSentOn sbfFn
}

type (
	state struct {
		env   *runtime.Env
		slots []value
		// arena backs materialized subflow-list variables; it is
		// truncated (not freed) between executions so steady-state
		// list materialization does not allocate. Slices handed out
		// before a growth keep their old backing array, so growth is
		// safe mid-execution.
		arena []*runtime.SubflowView
	}
	stmtFn func(*state) bool // true = RETURN unwinding
	intFn  func(*state) int64
	boolFn func(*state) bool
	pktFn  func(*state) *runtime.PacketView
	sbfFn  func(*state) *runtime.SubflowView
	predFn func(*state, *runtime.PacketView) bool
	// listFn yields a subflow list, materialized into the state arena.
	// Lists are eager (matching the interpreter's FILTER semantics);
	// consumers loop over the returned slice directly, so no
	// per-execution closures are created — a closure passed through an
	// indirect function value is what the escape analysis cannot keep
	// off the heap.
	listFn func(*state) []*runtime.SubflowView
)

func (q *scan) each(st *state, yield func(*runtime.PacketView) bool) {
	queue, after := st.env.Queue(q.id), -1
	if q.notSentOn != nil {
		after = queue.SkipSent(q.notSentOn(st))
	}
	queue.All(after, func(p *runtime.PacketView) bool {
		for _, pred := range q.preds {
			if !pred(st, p) {
				return true
			}
		}
		return yield(p)
	})
}

func (q *scan) top(st *state) *runtime.PacketView {
	var res *runtime.PacketView
	q.each(st, func(p *runtime.PacketView) bool {
		res = p
		return false
	})
	return res
}

type compiler struct {
	info *types.Info
}

// ---- Statements ----

func (c *compiler) compileStmt(s lang.Stmt) stmtFn {
	switch s := s.(type) {
	case *lang.BlockStmt:
		return c.compileBlock(s.Stmts)
	case *lang.IfStmt:
		cond := c.compileBool(s.Cond)
		then := c.compileBlock(s.Then.Stmts)
		if s.Else == nil {
			return func(st *state) bool {
				if cond(st) {
					return then(st)
				}
				return false
			}
		}
		els := c.compileStmt(s.Else)
		return func(st *state) bool {
			if cond(st) {
				return then(st)
			}
			return els(st)
		}
	case *lang.VarDecl:
		sym := c.info.Defs[s]
		slot := sym.Slot
		switch sym.Type {
		case types.Int:
			f := c.compileInt(s.Init)
			return func(st *state) bool { st.slots[slot] = value{i: f(st)}; return false }
		case types.Bool:
			f := c.compileBool(s.Init)
			return func(st *state) bool { st.slots[slot] = value{b: f(st)}; return false }
		case types.Packet:
			f := c.compilePkt(s.Init)
			return func(st *state) bool { st.slots[slot] = value{pkt: f(st)}; return false }
		case types.Subflow:
			f := c.compileSbf(s.Init)
			return func(st *state) bool { st.slots[slot] = value{sbf: f(st)}; return false }
		case types.SubflowList:
			it := c.compileList(s.Init)
			return func(st *state) bool {
				st.slots[slot] = value{list: it(st)}
				return false
			}
		case types.PacketQueue:
			// No run-time value: the checker resolved every use.
			return func(*state) bool { return false }
		}
		panic(fmt.Sprintf("compile: VAR of type %s", sym.Type))
	case *lang.ForeachStmt:
		sym := c.info.Defs[s]
		slot := sym.Slot
		iter := c.compileList(s.Iter)
		body := c.compileBlock(s.Body.Stmts)
		return func(st *state) bool {
			for _, sbf := range iter(st) {
				st.slots[slot] = value{sbf: sbf}
				if body(st) {
					return true
				}
			}
			return false
		}
	case *lang.SetStmt:
		reg := s.Reg
		f := c.compileInt(s.Value)
		return func(st *state) bool { st.env.SetReg(reg, f(st)); return false }
	case *lang.GSetStmt:
		reg := s.Reg
		f := c.compileInt(s.Value)
		return func(st *state) bool { st.env.SetGlobal(reg, f(st)); return false }
	case *lang.PushStmt:
		target := c.compileSbf(s.Target)
		arg := c.compilePkt(s.Arg)
		site := int32(s.PushAt.Line)
		return func(st *state) bool {
			t, p := target(st), arg(st)
			st.env.Site = site
			st.env.Push(t, p)
			return false
		}
	case *lang.DropStmt:
		arg := c.compilePkt(s.Arg)
		site := int32(s.DropPos.Line)
		return func(st *state) bool {
			p := arg(st)
			st.env.Site = site
			st.env.Drop(p)
			return false
		}
	case *lang.ReturnStmt:
		return func(*state) bool { return true }
	}
	panic(fmt.Sprintf("compile: unhandled statement %T", s))
}

func (c *compiler) compileBlock(stmts []lang.Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = c.compileStmt(s)
	}
	return func(st *state) bool {
		for _, f := range fns {
			if f(st) {
				return true
			}
		}
		return false
	}
}

// ---- Int expressions ----

func (c *compiler) compileInt(e lang.Expr) intFn {
	switch e := e.(type) {
	case *lang.NumberLit:
		v := e.Val
		return func(*state) int64 { return v }
	case *lang.RegExpr:
		idx := e.Index
		return func(st *state) int64 { return st.env.Reg(idx) }
	case *lang.GlobalExpr:
		idx := e.Index
		return func(st *state) int64 { return st.env.Global(idx) }
	case *lang.Ident:
		slot := c.info.Uses[e].Slot
		return func(st *state) int64 { return st.slots[slot].i }
	case *lang.UnaryExpr:
		x := c.compileInt(e.X)
		return func(st *state) int64 { return -x(st) }
	case *lang.BinaryExpr:
		x := c.compileInt(e.X)
		y := c.compileInt(e.Y)
		switch e.Op {
		case lang.PLUS:
			return func(st *state) int64 { return x(st) + y(st) }
		case lang.MINUS:
			return func(st *state) int64 { return x(st) - y(st) }
		case lang.STAR:
			return func(st *state) int64 { return x(st) * y(st) }
		case lang.SLASH:
			return func(st *state) int64 {
				d := y(st)
				if d == 0 {
					return 0
				}
				return x(st) / d
			}
		case lang.PERCENT:
			return func(st *state) int64 {
				d := y(st)
				if d == 0 {
					return 0
				}
				return x(st) % d
			}
		}
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberSbfInt:
			recv := c.compileSbf(e.Recv)
			prop := m.SbfInt
			return func(st *state) int64 {
				sbf := recv(st)
				if sbf == nil {
					return 0
				}
				return sbf.Ints[prop]
			}
		case types.MemberPktInt:
			recv := c.compilePkt(e.Recv)
			prop := m.PktInt
			return func(st *state) int64 {
				p := recv(st)
				if p == nil {
					return 0
				}
				return p.Ints[prop]
			}
		case types.MemberCount:
			if m.Scan == nil {
				iter := c.compileList(e.Recv)
				return func(st *state) int64 {
					return int64(len(iter(st)))
				}
			}
			q := c.compileQueue(m.Scan)
			return func(st *state) int64 {
				var n int64
				q.each(st, func(*runtime.PacketView) bool { n++; return true })
				return n
			}
		case types.MemberBytes:
			q := c.compileQueue(m.Scan)
			return func(st *state) int64 {
				var n int64
				q.each(st, func(p *runtime.PacketView) bool { n += p.Ints[runtime.PktSize]; return true })
				return n
			}
		}
	}
	panic(fmt.Sprintf("compile: unhandled int expression %T (%s)", e, lang.FormatExpr(e)))
}

// ---- Bool expressions ----

func (c *compiler) compileBool(e lang.Expr) boolFn {
	switch e := e.(type) {
	case *lang.BoolLit:
		v := e.Val
		return func(*state) bool { return v }
	case *lang.Ident:
		slot := c.info.Uses[e].Slot
		return func(st *state) bool { return st.slots[slot].b }
	case *lang.UnaryExpr:
		x := c.compileBool(e.X)
		return func(st *state) bool { return !x(st) }
	case *lang.BinaryExpr:
		return c.compileBoolBinary(e)
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberSbfBool:
			recv := c.compileSbf(e.Recv)
			prop := m.SbfBool
			return func(st *state) bool {
				sbf := recv(st)
				if sbf == nil {
					return false
				}
				return sbf.Bools[prop]
			}
		case types.MemberHasWindowFor:
			recv := c.compileSbf(e.Recv)
			arg := c.compilePkt(e.Args[0])
			return func(st *state) bool { return recv(st).HasWindowFor(arg(st)) }
		case types.MemberSentOn:
			recv := c.compilePkt(e.Recv)
			arg := c.compileSbf(e.Args[0])
			return func(st *state) bool { return recv(st).SentOn(arg(st)) }
		case types.MemberEmpty:
			if m.Scan == nil {
				iter := c.compileList(e.Recv)
				return func(st *state) bool {
					return len(iter(st)) == 0
				}
			}
			q := c.compileQueue(m.Scan)
			return func(st *state) bool { return q.top(st) == nil }
		}
	}
	panic(fmt.Sprintf("compile: unhandled bool expression %T (%s)", e, lang.FormatExpr(e)))
}

func (c *compiler) compileBoolBinary(e *lang.BinaryExpr) boolFn {
	switch e.Op {
	case lang.AND:
		x := c.compileBool(e.X)
		y := c.compileBool(e.Y)
		return func(st *state) bool { return x(st) && y(st) }
	case lang.OR:
		x := c.compileBool(e.X)
		y := c.compileBool(e.Y)
		return func(st *state) bool { return x(st) || y(st) }
	case lang.LT, lang.LTE, lang.GT, lang.GTE:
		x := c.compileInt(e.X)
		y := c.compileInt(e.Y)
		switch e.Op {
		case lang.LT:
			return func(st *state) bool { return x(st) < y(st) }
		case lang.LTE:
			return func(st *state) bool { return x(st) <= y(st) }
		case lang.GT:
			return func(st *state) bool { return x(st) > y(st) }
		default:
			return func(st *state) bool { return x(st) >= y(st) }
		}
	case lang.EQ, lang.NEQ:
		eq := c.compileEq(e)
		if e.Op == lang.EQ {
			return eq
		}
		return func(st *state) bool { return !eq(st) }
	}
	panic(fmt.Sprintf("compile: unhandled bool binary %s", e.Op))
}

func (c *compiler) compileEq(e *lang.BinaryExpr) boolFn {
	// Operand type drives the comparison. NULL literals were typed by
	// the checker to match the other side.
	t := c.info.TypeOf(e.X)
	if t == types.Invalid {
		t = c.info.TypeOf(e.Y)
	}
	switch t {
	case types.Packet:
		x := c.compilePkt(e.X)
		y := c.compilePkt(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	case types.Subflow:
		x := c.compileSbf(e.X)
		y := c.compileSbf(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	case types.Bool:
		x := c.compileBool(e.X)
		y := c.compileBool(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	default:
		x := c.compileInt(e.X)
		y := c.compileInt(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	}
}

// ---- Packet expressions ----

func (c *compiler) compilePkt(e lang.Expr) pktFn {
	switch e := e.(type) {
	case *lang.NullLit:
		return func(*state) *runtime.PacketView { return nil }
	case *lang.Ident:
		slot := c.info.Uses[e].Slot
		return func(st *state) *runtime.PacketView { return st.slots[slot].pkt }
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberTop:
			q := c.compileQueue(m.Scan)
			return func(st *state) *runtime.PacketView { return q.top(st) }
		case types.MemberPop:
			q := c.compileQueue(m.Scan)
			site := int32(e.Position().Line)
			return func(st *state) *runtime.PacketView {
				p := q.top(st)
				if p != nil {
					st.env.Site = site
					st.env.Pop(q.id, p)
				}
				return p
			}
		case types.MemberMin, types.MemberMax:
			q := c.compileQueue(m.Scan)
			lam := e.Args[0].(*lang.Lambda)
			slot := c.info.Defs[lam].Slot
			key := c.compileInt(lam.Body)
			max := m.Kind == types.MemberMax
			return func(st *state) *runtime.PacketView {
				var best *runtime.PacketView
				var bestKey int64
				q.each(st, func(p *runtime.PacketView) bool {
					st.slots[slot] = value{pkt: p}
					k := key(st)
					if best == nil || (max && k > bestKey) || (!max && k < bestKey) {
						best, bestKey = p, k
					}
					return true
				})
				return best
			}
		}
	}
	panic(fmt.Sprintf("compile: unhandled packet expression %T (%s)", e, lang.FormatExpr(e)))
}

// ---- Subflow expressions ----

func (c *compiler) compileSbf(e lang.Expr) sbfFn {
	switch e := e.(type) {
	case *lang.NullLit:
		return func(*state) *runtime.SubflowView { return nil }
	case *lang.Ident:
		slot := c.info.Uses[e].Slot
		return func(st *state) *runtime.SubflowView { return st.slots[slot].sbf }
	case *lang.MemberExpr:
		m := c.info.Members[e]
		switch m.Kind {
		case types.MemberMin, types.MemberMax:
			iter := c.compileList(e.Recv)
			lam := e.Args[0].(*lang.Lambda)
			slot := c.info.Defs[lam].Slot
			key := c.compileInt(lam.Body)
			max := m.Kind == types.MemberMax
			return func(st *state) *runtime.SubflowView {
				var best *runtime.SubflowView
				var bestKey int64
				for _, sbf := range iter(st) {
					st.slots[slot] = value{sbf: sbf}
					k := key(st)
					if best == nil || (max && k > bestKey) || (!max && k < bestKey) {
						best, bestKey = sbf, k
					}
				}
				return best
			}
		case types.MemberGet:
			iter := c.compileList(e.Recv)
			idx := c.compileInt(e.Args[0])
			return func(st *state) *runtime.SubflowView {
				list := iter(st)
				n := int64(len(list))
				if n == 0 {
					return nil
				}
				// GET wraps out-of-range indices: graceful by design.
				i := ((idx(st) % n) + n) % n
				return list[i]
			}
		}
	}
	panic(fmt.Sprintf("compile: unhandled subflow expression %T (%s)", e, lang.FormatExpr(e)))
}

// ---- Subflow lists ----

func (c *compiler) compileList(e lang.Expr) listFn {
	switch e := e.(type) {
	case *lang.EntityExpr:
		return func(st *state) []*runtime.SubflowView {
			return st.env.SubflowViews
		}
	case *lang.Ident:
		slot := c.info.Uses[e].Slot
		return func(st *state) []*runtime.SubflowView {
			return st.slots[slot].list
		}
	case *lang.MemberExpr:
		m := c.info.Members[e]
		if m.Kind == types.MemberFilter {
			inner := c.compileList(e.Recv)
			lam := e.Args[0].(*lang.Lambda)
			slot := c.info.Defs[lam].Slot
			pred := c.compileBool(lam.Body)
			return func(st *state) []*runtime.SubflowView {
				src := inner(st)
				start := len(st.arena)
				for _, sbf := range src {
					st.slots[slot] = value{sbf: sbf}
					// Lists the predicate itself materialized are dead
					// once it returns; dropping them keeps this list
					// contiguous.
					mark := len(st.arena)
					keep := pred(st)
					st.arena = st.arena[:mark]
					if keep {
						st.arena = append(st.arena, sbf)
					}
				}
				return st.arena[start:len(st.arena):len(st.arena)]
			}
		}
	}
	panic(fmt.Sprintf("compile: unhandled subflow list expression %T (%s)", e, lang.FormatExpr(e)))
}

// ---- Queue expressions ----

// compileQueue compiles a queue scan as the checker resolved it.
func (c *compiler) compileQueue(sc *types.Scan) *scan {
	preds := make([]predFn, len(sc.Filters))
	for i, lam := range sc.Filters {
		slot := c.info.Defs[lam].Slot
		body := c.compileBool(lam.Body)
		preds[i] = func(st *state, p *runtime.PacketView) bool {
			st.slots[slot] = value{pkt: p}
			return body(st)
		}
	}
	q := &scan{id: sc.Queue, preds: preds}
	if sc.NotSentOn != nil {
		q.notSentOn = c.compileSbf(sc.NotSentOn)
	}
	return q
}
