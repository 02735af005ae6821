package runtime

// Arena owns one connection's reusable snapshot storage: the Env, the
// subflow view storage, and the three queue views with their lazy
// materialization pages. One scheduler execution in steady state costs
// zero heap allocations — every structure below is recycled with
// generation counters instead of reallocation. Subflow storage grows
// only at bind time; a queue allocates a page of views the first time
// an execution touches one of its positions, and pages never move, so
// view pointers handed to a running scheduler stay stable.
//
// Lifecycle per execution:
//
//	views := a.BindSubflows(n)   // fill every field of every view
//	a.BindQueue(QueueSend, src, qLen, false)
//	a.BindQueue(QueueUnacked, ...)
//	a.BindQueue(QueueReinject, ...)
//	a.BeginExec()                // resets actions + pop state, O(1)
//	sched.Exec(a.Env())
type Arena struct {
	env      Env
	regs     [NumRegisters]int64 // used when the caller passes nil regs
	globals  [NumGlobals]int64   // execution-local copy of the shared globals
	sbfStore []SubflowView
	sbfPtrs  []*SubflowView
	queues   [3]Queue
}

// NewArena creates an arena whose Env persists registers in regs (a
// private register file is used when nil).
func NewArena(regs *[NumRegisters]int64) *Arena {
	a := &Arena{}
	if regs == nil {
		regs = &a.regs
	}
	a.env.Regs = regs
	a.env.Globals = &a.globals
	a.env.SendQ = &a.queues[QueueSend]
	a.env.UnackedQ = &a.queues[QueueUnacked]
	a.env.ReinjectQ = &a.queues[QueueReinject]
	for id := range a.queues {
		a.queues[id].gen = 1
	}
	return a
}

// Reset returns the arena to what NewArena builds over the same
// register file, which it zeroes: no subflow views, no queue bound, no
// action, certificate or global left from the executions before. The
// storage it grew stays; the generation counters keep counting, which
// invalidates every view as a fresh arena's would be empty.
func (a *Arena) Reset() {
	a.env.Reset()
	a.env.SubflowViews = nil
	*a.env.Regs = [NumRegisters]int64{}
	a.globals = [NumGlobals]int64{}
	for id := range a.queues {
		a.queues[id].bind(nil, 0)
	}
}

// Env returns the arena's environment. The pointer is stable for the
// arena's lifetime; contents change with every Bind*/BeginExec.
//
//progmp:hotpath
//progmp:deterministic
func (a *Arena) Env() *Env { return &a.env }

// BindSubflows sizes the subflow view set for the next execution and
// returns the views for the caller to fill. Views are recycled, so the
// caller must overwrite every field of every returned view.
//
//progmp:hotpath
//progmp:deterministic
func (a *Arena) BindSubflows(n int) []*SubflowView {
	if n > len(a.sbfStore) {
		newCap := n + 8
		//progmp:ignore hotpath cold growth: storage is recycled once sized for the subflow count
		a.sbfStore = make([]SubflowView, newCap)
		//progmp:ignore hotpath cold growth: storage is recycled once sized for the subflow count
		a.sbfPtrs = make([]*SubflowView, newCap)
		for i := range a.sbfStore {
			a.sbfPtrs[i] = &a.sbfStore[i]
		}
	}
	a.env.SubflowViews = a.sbfPtrs[:n]
	return a.env.SubflowViews
}

// BindQueue points queue id at a source of n packets for the next
// execution; views materialize afresh from src. reuse is ignored: it
// remains only because the benchmark's probes pass it.
//
//progmp:hotpath
//progmp:deterministic
func (a *Arena) BindQueue(id QueueID, src QueueSource, n int, reuse bool) {
	if id < QueueSend || id > QueueReinject {
		return
	}
	a.queues[id].bind(src, n)
}

// BeginExec readies the environment for one execution: the action queue
// empties (capacity retained) and all pop state clears. O(1).
//
//progmp:hotpath
//progmp:deterministic
func (a *Arena) BeginExec() {
	a.env.Reset()
}
