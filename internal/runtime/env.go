package runtime

// QueueSource materializes packet views on demand. A bound queue (see
// Arena.BindQueue) starts each execution with no view contents at all;
// the first access to a position fills the recycled view from the
// source. MaterializePacket must overwrite every exported field of v
// (views are pooled, so stale fields from an earlier snapshot are still
// present) and must describe a substrate that does not change for the
// remainder of the execution. The unexported fields are the queue's:
// it stamps them after the fill, so a source may assign v whole.
type QueueSource interface {
	// MaterializePacket fills v with packet i's current state. The
	// directive is a proof obligation on every implementation: queue
	// reads happen inside scheduler executions.
	//
	//progmp:hotpath
	//progmp:deterministic
	MaterializePacket(i int, v *PacketView)
}

// Queue is the snapshot of one packet queue presented to a scheduler
// execution. The underlying packet slice is ordered by (meta) sequence
// number, oldest first, exactly as the kernel's sk_write_queue would be
// walked via the runtime's queue_position pointer (§4.1).
//
// POP does not mutate the substrate: it marks the packet consumed within
// this execution and records an ActionPop, so the queue view stays
// consistent with the programming model (a popped packet is no longer
// visible to subsequent TOP/POP/FILTER evaluations).
//
// A queue owns recycled view storage and fills views lazily from its
// QueueSource as Top/All/At touch positions — the paper's late
// materialization (§4.1), which makes a snapshot whose packets are never
// inspected cost nothing beyond the bind itself.
//
// All per-execution state is generation-stamped: a view is filled when
// its mat equals matMark, a position popped when its popGen equals gen.
// Reset and rebinding bump a counter instead of clearing memory, so the
// steady-state cost of starting an execution is O(1) per queue, not
// O(packets).
type Queue struct {
	id      QueueID
	n       int // snapshot length
	src     QueueSource
	store   []PacketView // views for positions [0, n); may have extra capacity
	matMark uint32

	// Pop bookkeeping: popGen[i] == gen → position i consumed.
	gen     uint32
	popGen  []uint32
	nPopped int
	topHint int // all positions < topHint are consumed
}

// bind points the queue at a source of n packets for the next
// execution and invalidates every view (lazily — no memory is touched
// here). Pop state is per-execution and is cleared separately by Reset.
func (q *Queue) bind(id QueueID, src QueueSource, n int) {
	q.id = id
	q.src = src
	if n > len(q.store) {
		// Grow the backing arrays. Views from earlier executions keep
		// pointing into the old store, which is fine: snapshots are only
		// referenced within their own execution.
		newCap := n + n/2 + 8
		//progmp:ignore hotpath cold growth: backing arrays are recycled once sized for the queue
		q.store = make([]PacketView, newCap)
		//progmp:ignore hotpath cold growth: backing arrays are recycled once sized for the queue
		q.popGen = make([]uint32, newCap)
		q.gen = 1
	}
	q.n = n
	q.matMark++
	if q.matMark == 0 { // wraparound: marks on the views could collide
		for i := range q.store {
			q.store[i].mat = 0
		}
		q.matMark = 1
	}
}

// ID returns the queue's identity.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) ID() QueueID { return q.id }

// Len returns the number of packets still visible in the queue.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) Len() int { return q.n - q.nPopped }

// Empty reports whether no packets remain visible.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) Empty() bool { return q.Len() == 0 }

// popped reports whether position i was consumed this execution.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) popped(i int) bool { return q.popGen[i] == q.gen }

// Top returns the first visible packet, or nil when empty. The scan
// cursor only ever advances (pops are irrevocable within an execution),
// so Top is amortized O(1).
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) Top() *PacketView {
	for q.topHint < q.n && q.popped(q.topHint) {
		q.topHint++
	}
	if q.topHint >= q.n {
		return nil
	}
	return q.At(q.topHint)
}

// All calls fn for every visible packet in order; fn returning false
// stops the walk. This is the primitive the declarative operations
// (FILTER/MIN/MAX) build on; views materialize only as the walk
// reaches them, so an early stop leaves the tail untouched.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) All(fn func(*PacketView) bool) {
	for i := q.topHint; i < q.n; i++ {
		if q.popped(i) {
			continue
		}
		//progmp:ignore hotpath callback literal is checked inline at each hot-path call site
		if !fn(q.At(i)) {
			return
		}
	}
}

// Reset clears pop state so the same snapshot can be executed again.
// Materialized views stay valid: generation counters make the clear
// O(1) regardless of queue length.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) Reset() {
	q.gen++
	if q.gen == 0 { // wraparound: stamps in popGen could collide
		for i := range q.popGen {
			q.popGen[i] = 0
		}
		q.gen = 1
	}
	q.nPopped = 0
	q.topHint = 0
}

// At returns the packet at position i in the underlying snapshot,
// regardless of pop state, or nil when out of range. Positions are
// stable for the whole execution; the bytecode VM encodes packet
// handles as (queue, position) pairs.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) At(i int) *PacketView {
	if i < 0 || i >= q.n {
		return nil
	}
	p := &q.store[i]
	if p.mat != q.matMark {
		q.src.MaterializePacket(i, p)
		p.pos, p.mat = int32(i), q.matMark
	}
	return p
}

// NextVisible returns the position of the first not-yet-popped packet
// strictly after position `after` (start with -1), or -1 when none.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) NextVisible(after int) int {
	i := after + 1
	if i < q.topHint {
		i = q.topHint // everything below the hint is consumed
	}
	for ; i < q.n; i++ {
		if !q.popped(i) {
			return i
		}
	}
	return -1
}

// PopPacket marks p as consumed and returns whether it was visible.
// It supports popping from the middle of the queue, which the kernel
// runtime implements with the augmented queue_position pointer, in O(1)
// via the view's recorded position. A view this queue does not own is
// not visible in it.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) PopPacket(p *PacketView) bool {
	if p == nil {
		return false
	}
	i := int(p.pos)
	if i < 0 || i >= q.n || &q.store[i] != p || q.popped(i) {
		return false
	}
	q.popGen[i] = q.gen
	q.nPopped++
	return true
}

// Env is the complete execution environment for one scheduler run:
// subflow snapshots, queue snapshots, the register file, and the action
// queue that collects side effects.
type Env struct {
	SubflowViews []*SubflowView
	SendQ        *Queue
	UnackedQ     *Queue
	ReinjectQ    *Queue
	Regs         *[NumRegisters]int64
	// Globals is the execution-local copy of the shared global register
	// file (G1..G8). The substrate fills it from a store snapshot before
	// an execution and publishes the registers marked in the dirty mask
	// back to the store afterwards; the scheduler itself only ever
	// touches this local array, keeping the hot path allocation-free.
	Globals *[NumGlobals]int64
	Actions []Action
	// Cert is the quiescence certificate of the program that executed
	// on this Env since its last Reset (nil: none, or not stamped). The
	// stamp rides on the Env, so it reaches the substrate through any
	// wrapper that passes the Env on; a wrapper that adds actions of its
	// own must clear it.
	Cert *Certificate
	// Site is the current decision site; back-ends set it immediately
	// before emitting an action so the recorded Action carries the
	// program location (source line or bytecode pc) that decided it.
	Site int32

	// dirtyGlobals has bit i set when global register i was written this
	// execution; the substrate batches exactly those back to the store.
	dirtyGlobals uint32
}

// NewEnv assembles an environment over its own Arena from fully built
// views: the queues copy sendQ, unackedQ and reinjectQ view by view as
// the scheduler touches them, so the caller's views stay untouched. A
// nil queue is empty; nil regs gives the environment a private
// register file.
func NewEnv(subflows []*SubflowView, sendQ, unackedQ, reinjectQ []*PacketView, regs *[NumRegisters]int64) *Env {
	a := NewArena(regs)
	a.env.SubflowViews = subflows
	for id, views := range [...][]*PacketView{sendQ, unackedQ, reinjectQ} {
		a.BindQueue(QueueID(id), sliceSource(views), len(views), false)
	}
	return a.Env()
}

// sliceSource is the QueueSource of NewEnv: views built up front.
type sliceSource []*PacketView

//progmp:hotpath
//progmp:deterministic
func (s sliceSource) MaterializePacket(i int, v *PacketView) { *v = *s[i] }

// Reset clears the action queue and pop state for re-execution of the
// same snapshot (overhead benchmarks, compressed executions).
// Registers are preserved, and so is the Actions capacity — in steady
// state no append in the hot path allocates.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Reset() {
	e.Actions = e.Actions[:0]
	e.Site = 0
	e.Cert = nil
	e.dirtyGlobals = 0
	e.SendQ.Reset()
	e.UnackedQ.Reset()
	e.ReinjectQ.Reset()
}

// Queue returns the view for id.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Queue(id QueueID) *Queue {
	switch id {
	case QueueSend:
		return e.SendQ
	case QueueUnacked:
		return e.UnackedQ
	case QueueReinject:
		return e.ReinjectQ
	}
	return nil
}

// Reg reads register i (0-based). Out-of-range reads yield 0: the model
// has no exceptions by design.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Reg(i int) int64 {
	if i < 0 || i >= NumRegisters {
		return 0
	}
	return e.Regs[i]
}

// SetReg writes register i. Register writes take effect immediately and
// are visible to subsequent reads in the same execution (the round-robin
// scheduler of §3.4 depends on this).
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) SetReg(i int, v int64) {
	if i < 0 || i >= NumRegisters {
		return
	}
	e.Regs[i] = v
}

// Global reads global register i (0-based) from the execution-local
// copy. Out-of-range reads yield 0; an environment without a globals
// array reads all-zero.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Global(i int) int64 {
	if i < 0 || i >= NumGlobals || e.Globals == nil {
		return 0
	}
	return e.Globals[i]
}

// SetGlobal writes global register i in the execution-local copy and
// marks it dirty. Like SetReg, the write is immediately visible to
// subsequent reads in the same execution; cross-connection visibility
// happens when the substrate publishes the dirty set to the store.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) SetGlobal(i int, v int64) {
	if i < 0 || i >= NumGlobals || e.Globals == nil {
		return
	}
	e.Globals[i] = v
	e.dirtyGlobals |= 1 << uint(i)
}

// DirtyGlobals returns the bitmask of global registers written this
// execution (bit i ↔ register i).
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) DirtyGlobals() uint32 { return e.dirtyGlobals }

// ClearDirtyGlobals resets the dirty mask after the substrate published
// the writes.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) ClearDirtyGlobals() { e.dirtyGlobals = 0 }

// Pop marks p consumed from queue id and records the action. Popping a
// nil or already-consumed packet is a graceful no-op returning false.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Pop(id QueueID, p *PacketView) bool {
	q := e.Queue(id)
	if q == nil || !q.PopPacket(p) {
		return false
	}
	//progmp:ignore hotpath amortized: Actions capacity is retained across executions by BeginExec
	e.Actions = append(e.Actions, Action{Kind: ActionPop, Queue: id, Packet: p.Handle, Site: e.Site})
	return true
}

// Push records a PUSH of p on sbf. Pushing a nil packet or to a nil
// subflow is a graceful no-op (stale-reference safety by design).
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Push(sbf *SubflowView, p *PacketView) {
	if sbf == nil || p == nil {
		return
	}
	//progmp:ignore hotpath amortized: Actions capacity is retained across executions by BeginExec
	e.Actions = append(e.Actions, Action{Kind: ActionPush, Packet: p.Handle, Subflow: sbf.Handle, Site: e.Site})
}

// Drop records discarding p. Dropping nil is a graceful no-op.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) Drop(p *PacketView) {
	if p == nil {
		return
	}
	//progmp:ignore hotpath amortized: Actions capacity is retained across executions by BeginExec
	e.Actions = append(e.Actions, Action{Kind: ActionDrop, Packet: p.Handle, Site: e.Site})
}

// WorkAvailable reports whether some subflow could transmit now (see
// Facts.WorkAvailable): the guard's stall predicate, on the facts a
// quiescence certificate is checked over. A scheduler that emits
// nothing while this holds is stalling.
//
//progmp:hotpath
//progmp:deterministic
func (e *Env) WorkAvailable() bool { return e.Facts().WorkAvailable() }

// PushCount counts the ActionPush entries recorded so far. It is a
// convenience for tests and tools; the substrate learns whether an
// execution made progress from applying the actions (Conn.schedule).
func (e *Env) PushCount() int {
	n := 0
	for i := range e.Actions {
		if e.Actions[i].Kind == ActionPush {
			n++
		}
	}
	return n
}
