package runtime

import (
	"math"
	goruntime "runtime"
	"testing"
)

// The operations of FuzzQueueModel, one per input byte pair (op, arg).
// The op byte's low three bits pick the operation. With opJump set,
// opBind first moves the queue's materialization mark to MaxUint32
// less bits 3-4, and opBind and opReset move its generation to
// MaxUint32 less bits 5-6, so the binds and resets that follow wrap
// them.
const (
	opBind    = iota // BindQueue + BeginExec, n from arg
	opAt             // At(i), i from arg, in range or not
	opTop            // Top
	opNext           // NextVisible(after), after from arg
	opAll            // All after position op>>3%(n+3)-2, stopping after arg%(n+2)+1 visits
	opPop            // Env.Pop of a view held since any earlier op
	opReset          // Env.Reset: re-execute the same snapshot
	opForeign        // hold a view of another queue
	opJump    = 0x80
)

// queueModel is the reference Queue: flat per-position flags, no pages
// and no generation counters.
type queueModel struct {
	n      int
	filled []bool // the source filled position i during this bind
	popped []bool // position i was popped during this execution
	fills  int
}

func (m *queueModel) visible() []int {
	var out []int
	for i := 0; i < m.n; i++ {
		if !m.popped[i] {
			out = append(out, i)
		}
	}
	return out
}

// heldView is a view an operation returned, kept for later pops.
type heldView struct {
	v   *PacketView
	own bool // returned by the queue under test, at position pos
	pos int
}

// queueHarness drives the send queue of one Arena and the model side by
// side. A second arena, bound in lockstep, supplies foreign views whose
// position and materialization mark match the queue's own.
type queueHarness struct {
	t      *testing.T
	a, b   *Arena
	q      *Queue
	epoch  int // binds so far; stamped in every handle
	fills  int // the queue's source fills so far
	m      queueModel
	held   []heldView
	byPos  map[int]*PacketView // the view of each position this bind
	spares int                 // the foreign sources' fills, unchecked
}

// epochSource stamps the harness's bind count in every handle, so a
// view the queue failed to refill shows its earlier bind.
type epochSource struct{ h *queueHarness }

func (s epochSource) MaterializePacket(i int, v *PacketView) {
	s.h.fills++
	*v = PacketView{Handle: handleOf(s.h.epoch, i)}
	v.Ints[PktSeq] = int64(i)
}

func handleOf(epoch, i int) PacketHandle { return PacketHandle(epoch<<20 | i) }

func newQueueHarness(t *testing.T) *queueHarness {
	h := &queueHarness{t: t, a: NewArena(nil), b: NewArena(nil)}
	h.q = h.a.Env().SendQ
	h.bind(0)
	return h
}

func (h *queueHarness) bind(n int) {
	h.epoch++
	h.a.BindQueue(QueueSend, epochSource{h}, n, false)
	h.a.BindQueue(QueueUnacked, wholeSource{&h.spares}, 3, false)
	h.a.BeginExec()
	h.b.BindQueue(QueueSend, wholeSource{&h.spares}, n, false)
	h.b.BeginExec()
	h.m = queueModel{n: n, filled: make([]bool, n), popped: make([]bool, n), fills: h.m.fills}
	h.byPos = map[int]*PacketView{}
}

// reset re-executes the same snapshot: pops clear, views stay filled.
func (h *queueHarness) reset() {
	h.a.Env().Reset()
	h.b.Env().Reset()
	clear(h.m.popped)
}

// jump moves the queue's generation, and before a bind its mark, close
// to MaxUint32. Neither move is visible to the model: the queue compares
// the counters only for equality, every stamp it holds is at most the
// current counter, and a jump only moves forward.
func (h *queueHarness) jump(op byte, mark bool) {
	if to := math.MaxUint32 - uint32(op>>3&3); mark && to > h.q.matMark {
		h.q.matMark = to
	}
	if to := math.MaxUint32 - uint32(op>>5&3); to > h.q.gen {
		h.q.gen = to
	}
}

// own checks a view the queue returned for position i against the
// model and holds it.
func (h *queueHarness) own(op string, i int, v *PacketView) {
	h.t.Helper()
	if v == nil {
		h.t.Fatalf("%s: nil view for position %d of %d", op, i, h.m.n)
	}
	if v.Handle != handleOf(h.epoch, i) || v.Ints[PktSeq] != int64(i) {
		h.t.Fatalf("%s: position %d reads handle %#x seq %d, want %#x and %d", op, i, v.Handle, v.Ints[PktSeq], handleOf(h.epoch, i), i)
	}
	if prev, ok := h.byPos[i]; ok && prev != v {
		h.t.Fatalf("%s: position %d moved within an execution", op, i)
	}
	h.byPos[i] = v
	if !h.m.filled[i] {
		h.m.filled[i] = true
		h.m.fills++
	}
	if h.fills != h.m.fills {
		h.t.Fatalf("%s: %d source fills, the model counts %d", op, h.fills, h.m.fills)
	}
	h.held = append(h.held, heldView{v: v, own: true, pos: i})
}

func (h *queueHarness) step(op, arg byte) {
	h.t.Helper()
	env, n := h.a.Env(), h.m.n
	switch op & 7 {
	case opBind:
		if op&opJump != 0 {
			h.jump(op, true)
		}
		switch arg & 3 {
		case 0:
			h.bind(0)
		case 1:
			h.bind(1 + int(arg>>2)%pageSize)
		default:
			h.bind(pageSize + 1 + int(arg>>2)*5)
		}
	case opAt:
		i := int(arg)%(n+4) - 2
		v := h.q.At(i)
		if i < 0 || i >= n {
			if v != nil {
				h.t.Fatalf("At(%d) of %d positions returned a view", i, n)
			}
			return
		}
		h.own("At", i, v)
	case opTop:
		v, vis := h.q.Top(), h.m.visible()
		if len(vis) == 0 {
			if v != nil {
				h.t.Fatalf("Top of an empty queue returned position %d", v.pos)
			}
			return
		}
		h.own("Top", vis[0], v)
	case opNext:
		after := int(arg)%(n+5) - 3
		want := -1
		for i := max(after+1, 0); i < n; i++ {
			if !h.m.popped[i] {
				want = i
				break
			}
		}
		if got := h.q.NextVisible(after); got != want {
			h.t.Fatalf("NextVisible(%d) = %d, want %d", after, got, want)
		}
	case opAll:
		// op's high bits say after which position the walk starts.
		after, stop := int(op>>3)%(n+3)-2, int(arg)%(n+2)+1
		var vis []int
		for _, i := range h.m.visible() {
			if i > after {
				vis = append(vis, i)
			}
		}
		visited := 0
		h.q.All(after, func(v *PacketView) bool {
			if visited == len(vis) {
				h.t.Fatalf("All visited more than the %d visible positions", len(vis))
			}
			h.own("All", vis[visited], v)
			visited++
			return visited < stop
		})
		if want := min(stop, len(vis)); visited != want {
			h.t.Fatalf("All stopping after %d visited %d views, want %d", stop, visited, want)
		}
	case opPop:
		if len(h.held) == 0 {
			return
		}
		hv := h.held[int(arg)%len(h.held)]
		want := hv.own && hv.pos < n && h.m.filled[hv.pos] && !h.m.popped[hv.pos]
		acts := len(env.Actions)
		if got := env.Pop(QueueSend, hv.v); got != want {
			h.t.Fatalf("Pop of a view (own %v, position %d, filled this bind %v) = %v, want %v",
				hv.own, hv.pos, hv.own && hv.pos < n && h.m.filled[hv.pos], got, want)
		}
		if want {
			h.m.popped[hv.pos] = true
			if len(env.Actions) != acts+1 || env.Actions[acts].Packet != handleOf(h.epoch, hv.pos) {
				h.t.Fatalf("an accepted pop recorded %v", env.Actions[acts:])
			}
		} else if len(env.Actions) != acts {
			h.t.Fatalf("a refused pop recorded %v", env.Actions[acts:])
		}
	case opReset:
		if op&opJump != 0 {
			h.jump(op, false)
		}
		h.reset()
	case opForeign:
		var v *PacketView
		if arg&1 == 0 {
			v = h.b.Env().SendQ.At(int(arg>>1) % max(n, 1))
		} else {
			v = env.UnackedQ.At(int(arg>>1) % 3)
		}
		if v != nil {
			h.held = append(h.held, heldView{v: v})
		}
	}
	if vis := len(h.m.visible()); h.q.Len() != vis || h.q.Empty() != (vis == 0) {
		h.t.Fatalf("after op %d: Len %d Empty %v, want %d visible", op&7, h.q.Len(), h.q.Empty(), vis)
	}
}

func (h *queueHarness) run(ops []byte) {
	h.t.Helper()
	for k := 0; k+1 < len(ops); k += 2 {
		h.step(ops[k], ops[k+1])
	}
}

// FuzzQueueModel runs operation sequences against the Queue and its
// flat-slice model and requires identical results: the same views with
// the same contents, each filled once per bind, the same visibility
// after pops and resets, and the same verdict on every pop of an own,
// foreign or stale view.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opBind, 1, opTop, 0, opPop, 0, opTop, 0, opNext, 3, opAll, 9})
	f.Add([]byte{opBind, 2 | 40<<2, opAt, 200, opAt, 17, opPop, 1, opAll, 3, opReset, 0, opPop, 0, opNext, 2})
	f.Add([]byte{opBind, 2 | 8<<2, opAt, 5, opPop, 0, opAll | 9<<3, 30, opAll | 1<<3, 4})
	f.Add([]byte{opBind, 6, opAt, 5, opBind, 6, opPop, 0, opAt, 5, opPop, 0, opForeign, 4, opPop, 2, opForeign, 1, opPop, 3})
	f.Add([]byte{opBind, 10, opTop, 0, opPop, 0, opBind | opJump, 10, opBind, 10, opBind, 10, opTop, 0, opPop, 1, opReset | opJump, 0, opReset, 0, opReset, 0, opAll, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newQueueHarness(t).run(ops)
	})
}

// A view filled in an earlier bind is refilled once the mark wraps:
// the wrap clears the marks of every page that exists, so a view last
// filled at mark 1 is not taken for one filled at the new mark 1.
func TestQueueMarkWraparound(t *testing.T) {
	h := newQueueHarness(t)
	h.run([]byte{opBind, 2 | 8<<2, opAt, 2, opAt, 40, opTop, 0})
	if h.q.matMark != 2 {
		t.Fatalf("mark %d after two binds, want 2", h.q.matMark)
	}
	// MaxUint32-1, MaxUint32, then 0 wraps to 1 and 2: the views of
	// positions 0, 2 and 40 last carried mark 2.
	h.run([]byte{opBind | opJump | 2<<3, 2 | 8<<2, opBind, 2 | 8<<2, opBind, 2 | 8<<2, opBind, 2 | 8<<2})
	if h.q.matMark != 2 {
		t.Fatalf("mark %d after the wrap, want 2", h.q.matMark)
	}
	h.run([]byte{opAt, 2, opAt, 40, opTop, 0, opAll, 50, opPop, 0, opPop, 3})
}

// A position popped in an earlier execution is visible again once the
// generation wraps: the wrap clears the pop stamps of every page.
func TestQueueGenWraparound(t *testing.T) {
	h := newQueueHarness(t)
	h.run([]byte{opBind, 2 | 8<<2, opTop, 0, opPop, 0, opAt, 20, opPop, 1})
	popGen := h.q.gen
	// Jump to MaxUint32-1, then reset through MaxUint32 and the wrap
	// until the generation is back at the one that stamped the pops.
	h.run([]byte{opReset | opJump | 2<<5, 0})
	for h.q.gen != popGen {
		h.run([]byte{opReset, 0})
	}
	h.run([]byte{opTop, 0, opNext, 20, opNext, 19, opAll, 50, opPop, 0, opPop, 1, opTop, 0})
}

// A view from an earlier bind that was not filled again in this one,
// or a view of another queue, is not visible: popping it records
// nothing and hides nothing. A view filled before a Reset is.
func TestQueueRefusesStaleViews(t *testing.T) {
	fills := 0
	a, other := NewArena(nil), NewArena(nil)
	bind := func() {
		for _, a := range []*Arena{a, other} {
			a.BindQueue(QueueSend, wholeSource{&fills}, 8, false)
			a.BeginExec()
		}
	}
	bind()
	env, q := a.Env(), a.Env().SendQ
	stale := q.At(3)
	bind()
	foreign := other.Env().SendQ.At(3)
	if env.Pop(QueueSend, stale) || env.Pop(QueueSend, foreign) {
		t.Fatal("a stale or foreign view was popped")
	}
	if len(env.Actions) != 0 || q.Len() != 8 || q.NextVisible(2) != 3 {
		t.Fatalf("refused pops left %d actions, len %d, next after 2 at %d", len(env.Actions), q.Len(), q.NextVisible(2))
	}
	v := q.At(3)
	env.Reset()
	if !env.Pop(QueueSend, v) || q.NextVisible(2) != 4 {
		t.Fatal("a view filled before Reset was refused")
	}
}

// A deep queue costs the pages its execution touched: reading the top
// of a 65 536-position queue, popping it and reading a few neighbours
// allocates two pages, not a view per position.
func TestDeepQueueHoldsOnlyTouchedPages(t *testing.T) {
	fills := 0
	a := NewArena(nil)
	env, q := a.Env(), a.Env().SendQ
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	a.BindQueue(QueueSend, wholeSource{&fills}, 1<<16, false)
	a.BeginExec()
	if !env.Pop(QueueSend, q.Top()) {
		t.Fatal("pop of the top refused")
	}
	for _, i := range []int{1, 2, 7, 15, 16, 19, 31} {
		if q.At(i) == nil {
			t.Fatalf("At(%d) = nil", i)
		}
	}
	if top := q.Top(); top == nil || top.pos != 1 {
		t.Fatalf("Top after the pop = %v, want position 1", top)
	}
	goruntime.ReadMemStats(&after)
	pages := 0
	for _, pg := range q.pages {
		if pg != nil {
			pages++
		}
	}
	if pages > 2 {
		t.Errorf("the queue holds %d pages, want at most 2", pages)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<10 {
		t.Errorf("binding and touching 8 positions allocated %d B, want under 8 KiB", d)
	}
}
