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

// SentSource is a QueueSource that can say how far a scan whose filter
// is !p.SENT_ON(s) may skip: every packet before the first one not sent
// on s fails that filter. A source that is not one is scanned from its
// head.
type SentSource interface {
	// SentPrefix returns how many leading packets of the source were
	// transmitted on the subflow with ID id (0 <= id < MaxSubflows).
	//
	//progmp:hotpath
	//progmp:deterministic
	SentPrefix(id int) int
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
// A queue fills views lazily from its QueueSource as Top/All/At touch
// positions — the paper's late materialization (§4.1). The views live
// in pages of pageSize positions, and a page is allocated the first
// time the scheduler touches one of its positions, so a snapshot costs
// the pages its execution touched, in time and in memory, whatever the
// queue's length. Pages never move: a view pointer stays valid for the
// whole execution, even when a later At allocates another page.
//
// All per-execution state is generation-stamped: a view is filled when
// its mat equals matMark, a position popped when its page's pop stamp
// equals gen. Reset and rebinding bump a counter instead of clearing
// memory, so the steady-state cost of starting an execution is O(1)
// per queue, not O(packets).
type Queue struct {
	n       int // snapshot length
	src     QueueSource
	pages   []*viewPage // pages[i>>pageShift] holds position i; nil until touched
	matMark uint32
	gen     uint32 // a page's pop[j] == gen → its position j consumed
	nPopped int
	topHint int // all positions < topHint are consumed
}

// A queue's views live in pages of pageSize consecutive positions.
const (
	pageShift = 4
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// viewPage holds the views of pageSize consecutive positions and their
// pop stamps.
type viewPage struct {
	v   [pageSize]PacketView
	pop [pageSize]uint32
}

// bind points the queue at a source of n packets for the next
// execution and invalidates every view (lazily — no memory is touched
// here). Pop state is per-execution and is cleared separately by Reset.
func (q *Queue) bind(src QueueSource, n int) {
	q.src = src
	q.n = n
	q.matMark++
	if q.matMark == 0 { // wraparound: marks on the views could collide
		for _, pg := range q.pages {
			if pg != nil {
				for j := range pg.v {
					pg.v[j].mat = 0
				}
			}
		}
		q.matMark = 1
	}
}

// page returns the page holding position i, or nil when the scheduler
// has touched none of its positions yet.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) page(i int) *viewPage {
	if pi := uint(i) >> pageShift; pi < uint(len(q.pages)) {
		return q.pages[pi]
	}
	return nil
}

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

// popped reports whether position i was consumed this execution. The
// pop stamps are read only after a pop, so a scan of an execution that
// popped nothing never loads them.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) popped(i int) bool {
	if q.nPopped == 0 {
		return false
	}
	pg := q.page(i)
	return pg != nil && pg.pop[i&pageMask] == q.gen
}

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

// All calls fn for every visible packet after position after (start
// with -1), in order; fn returning false stops the walk. This is the
// primitive the declarative operations (FILTER/MIN/MAX) build on;
// views materialize only as the walk reaches them, so an early stop
// leaves the tail untouched.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) All(after int, fn func(*PacketView) bool) {
	for i := max(after+1, q.topHint); i < q.n; i++ {
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
	if q.gen == 0 { // wraparound: pop stamps on the pages could collide
		for _, pg := range q.pages {
			if pg != nil {
				pg.pop = [pageSize]uint32{}
			}
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
	pg := q.page(i)
	if pg == nil {
		return q.atNewPage(i)
	}
	p := &pg.v[i&pageMask]
	if p.mat != q.matMark {
		q.src.MaterializePacket(i, p)
		p.pos, p.mat = int32(i), q.matMark
	}
	return p
}

// atNewPage is At for a position on a page no execution has touched:
// it allocates the page, then reads the position through At. It stays
// out of line so that At's path to a page that exists adds one bounds
// check and one load to a flat array's, and no register spills.
//
//progmp:hotpath
//progmp:deterministic
//go:noinline
func (q *Queue) atNewPage(i int) *PacketView {
	pi := i >> pageShift
	if pi >= len(q.pages) {
		//progmp:ignore hotpath once per doubling of the highest page a queue ever exposes
		q.pages = append(q.pages, make([]*viewPage, pi+1-len(q.pages))...)
	}
	//progmp:ignore hotpath once per 16 positions a queue ever exposes: pages are recycled by every later bind
	q.pages[pi] = new(viewPage)
	return q.At(i)
}

// NextVisible returns the position of the first not-yet-popped packet
// strictly after position `after` (start with -1), or -1 when none.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) NextVisible(after int) int {
	for i := max(after+1, q.topHint); i < q.n; i++ { // everything below the hint is consumed
		if !q.popped(i) {
			return i
		}
	}
	return -1
}

// SkipSent returns the position before the first packet of the
// snapshot not sent on sbf: where a scan whose filter is
// !p.SENT_ON(sbf) starts, since every packet before it fails that
// filter. It is -1, skipping nothing, for a NULL subflow or one whose
// ID no packet carries (SENT_ON is false for both) and for a source
// that is no SentSource. Pops do not matter: the scan's NextVisible
// steps over them.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) SkipSent(sbf *SubflowView) int {
	if sbf == nil {
		return -1
	}
	id := sbf.Ints[SbfID]
	if id < 0 || id >= MaxSubflows {
		return -1
	}
	if s, ok := q.src.(SentSource); ok {
		return s.SentPrefix(int(id)) - 1
	}
	return -1
}

// PopPacket marks p as consumed and returns whether it was visible.
// It supports popping from the middle of the queue, which the kernel
// runtime implements with the augmented queue_position pointer, in O(1)
// via the view's recorded position. A view this queue does not own is
// not visible in it, and neither is one it filled for an earlier bind
// and has not filled again since: that view describes a packet of a
// snapshot the current execution does not see.
//
//progmp:hotpath
//progmp:deterministic
func (q *Queue) PopPacket(p *PacketView) bool {
	// A view of this queue carrying the current mark was filled by At
	// this bind, so its position is in range; a foreign view that
	// carries it fails the identity check below.
	if p == nil || p.mat != q.matMark {
		return false
	}
	if pg := q.page(int(p.pos)); pg != nil {
		if j := p.pos & pageMask; &pg.v[j] == p && pg.pop[j] != q.gen {
			pg.pop[j] = q.gen
			q.nPopped++
			return true
		}
	}
	return false
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
	// file (G1..G8). The substrate copies it out of the store before
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
	// source line that decided it.
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

// SentPrefix answers by a plain walk from the head.
//
//progmp:hotpath
//progmp:deterministic
func (s sliceSource) SentPrefix(id int) int {
	n := 0
	for n < len(s) && s[n].SentOnMask&(1<<uint(id)) != 0 {
		n++
	}
	return n
}

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
