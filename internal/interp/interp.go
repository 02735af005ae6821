// Package interp is the tree-walking interpreter back-end for ProgMP
// scheduler programs — the reference semantics ("alternative 1" in §4.1
// of the paper). It is the baseline the compiled back-ends are verified
// against.
package interp

import (
	"fmt"
	"sync"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// Interpreter executes a checked program directly over its AST. It is
// safe for concurrent use with distinct environments; execution frames
// are pooled so a steady-state execution does not allocate.
type Interpreter struct {
	info   *types.Info
	frames sync.Pool
}

// New builds an interpreter for a checked program.
func New(info *types.Info) *Interpreter {
	it := &Interpreter{info: info}
	it.frames.New = func() any {
		return &frame{info: info, slots: make([]value, info.NumSlots)}
	}
	return it
}

// Exec runs one scheduler execution against env.
//
//progmp:hotpath
//progmp:deterministic
func (it *Interpreter) Exec(env *runtime.Env) {
	f := it.frames.Get().(*frame)
	f.env = env
	for _, s := range it.info.Prog.Stmts {
		if f.execStmt(s) {
			break
		}
	}
	f.env = nil
	for i := range f.slots {
		f.slots[i] = value{}
	}
	f.sbfLists = f.sbfLists[:0]
	it.frames.Put(f)
}

// value is the interpreter's dynamic value. Exactly one representation
// is active, chosen by the static type of the producing expression.
type value struct {
	i    int64
	b    bool
	pkt  *runtime.PacketView
	sbf  *runtime.SubflowView
	list []*runtime.SubflowView
}

// qEach visits the visible packets of sc's queue that pass its filters
// (late materialization, §4.1), in queue order, until fn returns false.
// Queue-typed expressions have no run-time value: the checker resolved
// every scanning member to its types.Scan. The walk is the literal one
// from the head, ignoring Scan.NotSentOn: the compiled back-ends start
// past the sent prefix, and the fuzzers hold them to this reference.
func (f *frame) qEach(sc *types.Scan, fn func(*runtime.PacketView) bool) {
	f.env.Queue(sc.Queue).All(-1, func(p *runtime.PacketView) bool {
		for _, lam := range sc.Filters {
			f.slots[f.info.Defs[lam].Slot] = value{pkt: p}
			if !f.eval(lam.Body).b {
				return true // skip, continue walking
			}
		}
		//progmp:ignore hotpath callback literal is checked inline at each call site
		return fn(p)
	})
}

// qTop returns the first matching packet or nil.
func (f *frame) qTop(sc *types.Scan) *runtime.PacketView {
	var res *runtime.PacketView
	f.qEach(sc, func(p *runtime.PacketView) bool {
		res = p
		return false
	})
	return res
}

// qCount returns the number of matching packets.
func (f *frame) qCount(sc *types.Scan) int64 {
	var n int64
	f.qEach(sc, func(*runtime.PacketView) bool {
		n++
		return true
	})
	return n
}

// qBytes sums the payload sizes of matching packets (queue.BYTES).
func (f *frame) qBytes(sc *types.Scan) int64 {
	var n int64
	f.qEach(sc, func(p *runtime.PacketView) bool {
		n += p.Ints[runtime.PktSize]
		return true
	})
	return n
}

type frame struct {
	info  *types.Info
	env   *runtime.Env
	slots []value
	// sbfLists is the per-execution arena for materialized subflow
	// lists. Values produced during an execution hold capacity-capped
	// sub-slices; entries are write-once, so a later arena growth (which
	// copies) cannot invalidate them. It resets to length zero between
	// executions, keeping its capacity — in steady state no execution
	// allocates.
	sbfLists []*runtime.SubflowView
}

// execStmt executes s; it returns true when a RETURN unwinds.
func (f *frame) execStmt(s lang.Stmt) bool {
	switch s := s.(type) {
	case *lang.BlockStmt:
		for _, inner := range s.Stmts {
			if f.execStmt(inner) {
				return true
			}
		}
	case *lang.IfStmt:
		if f.eval(s.Cond).b {
			for _, inner := range s.Then.Stmts {
				if f.execStmt(inner) {
					return true
				}
			}
		} else if s.Else != nil {
			return f.execStmt(s.Else)
		}
	case *lang.VarDecl:
		// A queue variable is an alias the checker resolved: no value.
		if sym := f.info.Defs[s]; sym.Type != types.PacketQueue {
			f.slots[sym.Slot] = f.eval(s.Init)
		}
	case *lang.ForeachStmt:
		list := f.eval(s.Iter).list
		sym := f.info.Defs[s]
		for _, sbf := range list {
			f.slots[sym.Slot] = value{sbf: sbf}
			for _, inner := range s.Body.Stmts {
				if f.execStmt(inner) {
					return true
				}
			}
		}
	case *lang.SetStmt:
		f.env.SetReg(s.Reg, f.eval(s.Value).i)
	case *lang.GSetStmt:
		f.env.SetGlobal(s.Reg, f.eval(s.Value).i)
	case *lang.PushStmt:
		target := f.eval(s.Target).sbf
		pkt := f.eval(s.Arg).pkt
		f.env.Site = int32(s.PushAt.Line)
		f.env.Push(target, pkt)
	case *lang.DropStmt:
		pkt := f.eval(s.Arg).pkt
		f.env.Site = int32(s.DropPos.Line)
		f.env.Drop(pkt)
	case *lang.ReturnStmt:
		return true
	}
	return false
}

func (f *frame) eval(e lang.Expr) value {
	switch e := e.(type) {
	case *lang.NumberLit:
		return value{i: e.Val}
	case *lang.BoolLit:
		return value{b: e.Val}
	case *lang.NullLit:
		return value{} // nil packet and nil subflow alike
	case *lang.RegExpr:
		return value{i: f.env.Reg(e.Index)}
	case *lang.GlobalExpr:
		return value{i: f.env.Global(e.Index)}
	case *lang.Ident:
		return f.slots[f.info.Uses[e].Slot]
	case *lang.EntityExpr:
		if e.Kind == lang.EntitySubflows {
			return value{list: f.env.SubflowViews}
		}
	case *lang.UnaryExpr:
		x := f.eval(e.X)
		if e.Op == lang.NOT {
			return value{b: !x.b}
		}
		return value{i: -x.i}
	case *lang.BinaryExpr:
		return f.evalBinary(e)
	case *lang.MemberExpr:
		return f.evalMember(e)
	}
	//progmp:ignore hotpath cold panic: admitted programs have no unhandled expressions
	panic(fmt.Sprintf("interp: unhandled expression %T", e))
}

func (f *frame) evalBinary(e *lang.BinaryExpr) value {
	// Short-circuit boolean operators.
	switch e.Op {
	case lang.AND:
		if !f.eval(e.X).b {
			return value{b: false}
		}
		return value{b: f.eval(e.Y).b}
	case lang.OR:
		if f.eval(e.X).b {
			return value{b: true}
		}
		return value{b: f.eval(e.Y).b}
	}
	x := f.eval(e.X)
	y := f.eval(e.Y)
	switch e.Op {
	case lang.PLUS:
		return value{i: x.i + y.i}
	case lang.MINUS:
		return value{i: x.i - y.i}
	case lang.STAR:
		return value{i: x.i * y.i}
	case lang.SLASH:
		// Division by zero yields 0: no exceptions by design (§3.3).
		if y.i == 0 {
			return value{i: 0}
		}
		return value{i: x.i / y.i}
	case lang.PERCENT:
		if y.i == 0 {
			return value{i: 0}
		}
		return value{i: x.i % y.i}
	case lang.LT:
		return value{b: x.i < y.i}
	case lang.LTE:
		return value{b: x.i <= y.i}
	case lang.GT:
		return value{b: x.i > y.i}
	case lang.GTE:
		return value{b: x.i >= y.i}
	case lang.EQ, lang.NEQ:
		eq := f.valuesEqual(e, x, y)
		if e.Op == lang.NEQ {
			eq = !eq
		}
		return value{b: eq}
	}
	//progmp:ignore hotpath cold panic: admitted programs have no unhandled operators
	panic(fmt.Sprintf("interp: unhandled binary op %s", e.Op))
}

func (f *frame) valuesEqual(e *lang.BinaryExpr, x, y value) bool {
	switch f.info.TypeOf(e.X) {
	case types.Packet:
		return x.pkt == y.pkt
	case types.Subflow:
		return x.sbf == y.sbf
	case types.Bool:
		return x.b == y.b
	default:
		return x.i == y.i
	}
}

func (f *frame) evalMember(e *lang.MemberExpr) value {
	m := f.info.Members[e]
	if m.Scan != nil {
		return f.evalScan(e, m)
	}
	recv := f.eval(e.Recv)
	switch m.Kind {
	case types.MemberSbfInt:
		if recv.sbf == nil {
			return value{} // graceful NULL handling
		}
		return value{i: recv.sbf.Ints[m.SbfInt]}
	case types.MemberSbfBool:
		if recv.sbf == nil {
			return value{}
		}
		return value{b: recv.sbf.Bools[m.SbfBool]}
	case types.MemberHasWindowFor:
		arg := f.eval(e.Args[0])
		return value{b: recv.sbf.HasWindowFor(arg.pkt)}
	case types.MemberPktInt:
		if recv.pkt == nil {
			return value{}
		}
		return value{i: recv.pkt.Ints[m.PktInt]}
	case types.MemberSentOn:
		arg := f.eval(e.Args[0])
		return value{b: recv.pkt.SentOn(arg.sbf)}
	case types.MemberFilter:
		lam := e.Args[0].(*lang.Lambda)
		sym := f.info.Defs[lam]
		start := len(f.sbfLists)
		for _, sbf := range recv.list {
			f.slots[sym.Slot] = value{sbf: sbf}
			// Lists the predicate itself materialized are dead once it
			// returns; dropping them keeps this list contiguous.
			mark := len(f.sbfLists)
			keep := f.eval(lam.Body).b
			f.sbfLists = f.sbfLists[:mark]
			if keep {
				//progmp:ignore hotpath amortized: pooled frame retains arena capacity
				f.sbfLists = append(f.sbfLists, sbf)
			}
		}
		return value{list: f.sbfLists[start:len(f.sbfLists):len(f.sbfLists)]}
	case types.MemberMin, types.MemberMax:
		lam := e.Args[0].(*lang.Lambda)
		sym := f.info.Defs[lam]
		var best *runtime.SubflowView
		var bestKey int64
		for _, sbf := range recv.list {
			f.slots[sym.Slot] = value{sbf: sbf}
			if key := f.eval(lam.Body).i; best == nil || better(m, key, bestKey) {
				best, bestKey = sbf, key
			}
		}
		return value{sbf: best}
	case types.MemberEmpty:
		return value{b: len(recv.list) == 0}
	case types.MemberCount:
		return value{i: int64(len(recv.list))}
	case types.MemberGet:
		idx := f.eval(e.Args[0]).i
		n := int64(len(recv.list))
		if n == 0 {
			return value{}
		}
		// Out-of-range indices wrap: graceful by design.
		idx = ((idx % n) + n) % n
		return value{sbf: recv.list[idx]}
	}
	//progmp:ignore hotpath cold panic: admitted programs have no unhandled members
	panic(fmt.Sprintf("interp: unhandled member %s", e.Name))
}

// better reports whether key beats bestKey under MIN or MAX; ties keep
// the earliest element.
func better(m *types.Member, key, bestKey int64) bool {
	if m.Kind == types.MemberMax {
		return key > bestKey
	}
	return key < bestKey
}

// evalScan evaluates a member that walks a packet queue; empty scans
// yield NULL.
func (f *frame) evalScan(e *lang.MemberExpr, m *types.Member) value {
	switch m.Kind {
	case types.MemberTop:
		return value{pkt: f.qTop(m.Scan)}
	case types.MemberPop:
		p := f.qTop(m.Scan)
		if p != nil {
			f.env.Site = int32(e.Position().Line)
			f.env.Pop(m.Scan.Queue, p)
		}
		return value{pkt: p}
	case types.MemberEmpty:
		return value{b: f.qTop(m.Scan) == nil}
	case types.MemberCount:
		return value{i: f.qCount(m.Scan)}
	case types.MemberBytes:
		return value{i: f.qBytes(m.Scan)}
	case types.MemberMin, types.MemberMax:
		lam := e.Args[0].(*lang.Lambda)
		sym := f.info.Defs[lam]
		var best *runtime.PacketView
		var bestKey int64
		f.qEach(m.Scan, func(p *runtime.PacketView) bool {
			f.slots[sym.Slot] = value{pkt: p}
			if key := f.eval(lam.Body).i; best == nil || better(m, key, bestKey) {
				best, bestKey = p, key
			}
			return true
		})
		return value{pkt: best}
	}
	//progmp:ignore hotpath cold panic: the checker sets Scan on these kinds only
	panic(fmt.Sprintf("interp: unhandled queue member %s", e.Name))
}
