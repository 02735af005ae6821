package runtime

import (
	"testing"
	"testing/quick"
)

func pkts(n int) []*PacketView {
	out := make([]*PacketView, n)
	for i := range out {
		p := &PacketView{Handle: PacketHandle(i + 1)}
		p.Ints[PktSeq] = int64(i)
		p.Ints[PktSize] = 100
		out[i] = p
	}
	return out
}

// sendQ returns the send queue of an environment holding views in Q.
func sendQ(views []*PacketView) *Queue { return NewEnv(nil, views, nil, nil, nil).SendQ }

func TestQueueTopPopOrder(t *testing.T) {
	q := sendQ(pkts(3))
	if q.Len() != 3 || q.Empty() {
		t.Fatalf("fresh queue: len=%d empty=%v", q.Len(), q.Empty())
	}
	first := q.Top()
	if first.Ints[PktSeq] != 0 {
		t.Errorf("Top seq = %d, want 0", first.Ints[PktSeq])
	}
	if !q.PopPacket(first) {
		t.Fatal("PopPacket(first) failed")
	}
	if q.PopPacket(first) {
		t.Error("double pop succeeded")
	}
	if got := q.Top().Ints[PktSeq]; got != 1 {
		t.Errorf("Top after pop = %d, want 1", got)
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}

func TestQueuePopMiddle(t *testing.T) {
	q := sendQ(pkts(3))
	middle := q.At(1)
	if !q.PopPacket(middle) {
		t.Fatal("middle pop failed")
	}
	var seen []int64
	q.All(-1, func(p *PacketView) bool {
		seen = append(seen, p.Ints[PktSeq])
		return true
	})
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 2 {
		t.Errorf("visible after middle pop = %v, want [0 2]", seen)
	}
}

func TestQueueNextVisible(t *testing.T) {
	q := sendQ(pkts(4))
	q.PopPacket(q.At(0))
	q.PopPacket(q.At(2))
	var order []int
	for pos := q.NextVisible(-1); pos >= 0; pos = q.NextVisible(pos) {
		order = append(order, pos)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Errorf("NextVisible walk = %v, want [1 3]", order)
	}
}

func TestQueueReset(t *testing.T) {
	q := sendQ(pkts(2))
	q.PopPacket(q.At(0))
	q.Reset()
	if q.Len() != 2 {
		t.Errorf("Len after reset = %d, want 2", q.Len())
	}
}

func TestQueueAllEarlyStop(t *testing.T) {
	q := sendQ(pkts(5))
	count := 0
	q.All(-1, func(*PacketView) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early-stopped walk visited %d, want 2", count)
	}
}

func TestEnvActionsAndRegisters(t *testing.T) {
	sbf := &SubflowView{Handle: 7}
	sbf.Ints[SbfID] = 0
	env := NewEnv([]*SubflowView{sbf}, pkts(2), nil, nil, nil)
	p := env.SendQ.Top()
	if !env.Pop(QueueSend, p) {
		t.Fatal("Pop failed")
	}
	env.Push(sbf, p)
	env.Drop(nil) // graceful no-op
	env.Push(nil, p)
	env.Push(sbf, nil)
	if len(env.Actions) != 2 {
		t.Fatalf("actions = %v, want pop+push only", env.Actions)
	}
	if env.Actions[1].Kind != ActionPush {
		t.Errorf("second action = %v, want a push", env.Actions[1])
	}
	env.SetReg(3, 42)
	if env.Reg(3) != 42 {
		t.Errorf("register write lost")
	}
	env.SetReg(-1, 9)
	env.SetReg(NumRegisters, 9)
	if env.Reg(-1) != 0 || env.Reg(NumRegisters) != 0 {
		t.Errorf("out-of-range registers must read 0")
	}
	env.Reset()
	if len(env.Actions) != 0 || env.SendQ.Len() != 2 {
		t.Errorf("Reset must clear actions and pops")
	}
	if env.Reg(3) != 42 {
		t.Errorf("Reset must preserve registers")
	}
}

// TestArenaResetEqualsNew: after an execution that bound subflows and
// queues, popped, pushed, wrote registers and globals and was stamped,
// a reset arena's environment reads as a new arena's: no views, empty
// queues, no action or certificate, zero registers and globals.
func TestArenaResetEqualsNew(t *testing.T) {
	var regs [NumRegisters]int64
	a := NewArena(&regs)
	views := a.BindSubflows(2)
	a.BindQueue(QueueSend, sliceSource(pkts(3)), 3, false)
	a.BeginExec()
	env := a.Env()
	p := env.SendQ.Top()
	env.Pop(QueueSend, p)
	env.Push(views[0], p)
	env.SetReg(2, 5)
	env.SetGlobal(1, 6)
	env.Cert = &Certificate{}

	a.Reset()
	fresh := NewArena(nil).Env()
	switch {
	case env.Cert != nil || len(env.Actions) != 0 || len(env.SubflowViews) != len(fresh.SubflowViews):
		t.Fatalf("reset env: cert %v, %d actions, %d subflow views", env.Cert, len(env.Actions), len(env.SubflowViews))
	case env.SendQ.Len() != 0 || env.SendQ.Top() != nil || env.DirtyGlobals() != 0:
		t.Fatalf("reset send queue holds %d packets, dirty globals %b", env.SendQ.Len(), env.DirtyGlobals())
	case regs != [NumRegisters]int64{} || *env.Globals != *fresh.Globals:
		t.Fatalf("reset registers %v, globals %v", regs, *env.Globals)
	}
}

func TestSentOnAndWindow(t *testing.T) {
	sbf := &SubflowView{RWndFreeBytes: 500}
	sbf.Ints[SbfID] = 3
	p := &PacketView{SentOnMask: 1 << 3}
	p.Ints[PktSize] = 400
	if !p.SentOn(sbf) {
		t.Error("SentOn lost the bit")
	}
	if !sbf.HasWindowFor(p) {
		t.Error("400 <= 500 must fit")
	}
	p.Ints[PktSize] = 600
	if sbf.HasWindowFor(p) {
		t.Error("600 > 500 must not fit")
	}
	var nilS *SubflowView
	var nilP *PacketView
	if nilS.HasWindowFor(p) || sbf.HasWindowFor(nilP) || nilP.SentOn(sbf) || p.SentOn(nil) {
		t.Error("nil receivers must be graceful")
	}
}

// Property: any interleaving of pops keeps Len consistent with the
// number of distinct successful pops, and Top always returns the first
// non-popped packet.
func TestQueuePopProperty(t *testing.T) {
	f := func(popIdx []uint8) bool {
		const n = 10
		q := sendQ(pkts(n))
		popped := map[int]bool{}
		for _, raw := range popIdx {
			i := int(raw) % n
			ok := q.PopPacket(q.At(i))
			if ok == popped[i] {
				return false // must succeed exactly once per packet
			}
			popped[i] = true
		}
		if q.Len() != n-len(popped) {
			return false
		}
		top := q.Top()
		for i := 0; i < n; i++ {
			if !popped[i] {
				return top == q.At(i)
			}
		}
		return top == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// wholeSource fills a view by assigning it whole, as a source built on
// a struct literal does, and counts its fills.
type wholeSource struct{ fills *int }

func (s wholeSource) MaterializePacket(i int, v *PacketView) {
	*s.fills++
	*v = PacketView{Handle: PacketHandle(i + 1)}
	v.Ints[PktSeq] = int64(i)
}

// A source that overwrites the queue's own fields still pops in O(1)
// at every position: At stamps the position after the fill. Each
// position is filled once per bind, and a view the queue does not own
// is refused with no action recorded.
func TestQueueOwnsItsViews(t *testing.T) {
	const n = 9
	fills := 0
	a := NewArena(nil)
	a.BindQueue(QueueSend, wholeSource{&fills}, n, false)
	a.BindQueue(QueueUnacked, wholeSource{&fills}, 1, false)
	a.BeginExec()
	env, q := a.Env(), a.Env().SendQ
	for _, i := range []int{4, 0, 8, 1, 7, 2, 6, 3, 5} {
		v := q.At(i)
		if v.pos != int32(i) || v.mat != q.matMark {
			t.Fatalf("At(%d) stamped pos %d mat %d, want %d and %d", i, v.pos, v.mat, i, q.matMark)
		}
		if !env.Pop(QueueSend, v) {
			t.Fatalf("pop at position %d refused", i)
		}
	}
	if q.Len() != 0 || len(env.Actions) != n || fills != n {
		t.Fatalf("after popping all: len %d, %d actions, %d fills; want 0, %d, %d", q.Len(), len(env.Actions), fills, n, n)
	}

	env.Reset()
	q.At(0)
	if fills != n {
		t.Errorf("Reset refilled a view: %d fills, want %d", fills, n)
	}
	foreign := NewEnv(nil, pkts(n), nil, nil, nil).SendQ.At(0)
	if env.Pop(QueueSend, foreign) || env.Pop(QueueSend, env.UnackedQ.At(0)) || env.Pop(QueueUnacked, q.At(0)) {
		t.Error("a queue popped a view it does not own")
	}
	if len(env.Actions) != 0 || q.Len() != n {
		t.Errorf("refused pops recorded %d actions and left len %d", len(env.Actions), q.Len())
	}

	a.BindQueue(QueueSend, wholeSource{&fills}, n, false)
	q.At(0)
	if fills != n+2 { // UnackedQ.At(0) above, and this refill
		t.Errorf("a rebind did not refill: %d fills, want %d", fills, n+2)
	}
}

func TestStringers(t *testing.T) {
	if QueueSend.String() != "Q" || QueueUnacked.String() != "QU" || QueueReinject.String() != "RQ" {
		t.Error("queue names wrong")
	}
	if SbfRTT.String() != "RTT" || SbfTSQThrottled.String() != "TSQ_THROTTLED" {
		t.Error("subflow property names wrong")
	}
	if PktSize.String() != "SIZE" {
		t.Error("packet property names wrong")
	}
	if ActionPush.String() != "PUSH" || ActionPop.String() != "POP" || ActionDrop.String() != "DROP" {
		t.Error("action names wrong")
	}
}

func TestEnvQueueLookupAndDrop(t *testing.T) {
	env := NewEnv(nil, pkts(1), nil, nil, nil)
	if env.Queue(QueueSend) != env.SendQ || env.Queue(QueueUnacked) != env.UnackedQ || env.Queue(QueueReinject) != env.ReinjectQ {
		t.Errorf("Queue lookup broken")
	}
	if env.Queue(QueueID(9)) != nil {
		t.Errorf("unknown queue id must be nil")
	}
	env.Drop(env.SendQ.Top())
	if len(env.Actions) != 1 || env.Actions[0].Kind != ActionDrop {
		t.Errorf("Drop not recorded: %v", env.Actions)
	}
	if env.SendQ.At(5) != nil {
		t.Errorf("out-of-range At must be nil")
	}
}

func TestStringersOutOfRange(t *testing.T) {
	if QueueID(9).String() == "" || SubflowIntProp(99).String() == "" ||
		SubflowBoolProp(99).String() == "" || PacketIntProp(99).String() == "" ||
		ActionKind(9).String() == "" {
		t.Errorf("out-of-range stringers must still render")
	}
}

func TestWorkAvailable(t *testing.T) {
	view := &SubflowView{Handle: 1}
	view.Ints[SbfCwnd] = 10
	env := NewEnv([]*SubflowView{view}, pkts(1), nil, nil, nil)
	if !env.WorkAvailable() {
		t.Error("nonempty Q + cwnd headroom must report work available")
	}
	view.Bools[SbfTSQThrottled] = true
	if env.WorkAvailable() {
		t.Error("TSQ-throttled subflow must not count as available")
	}
	view.Bools[SbfTSQThrottled] = false
	view.Ints[SbfSkbsInFlight] = 10
	if env.WorkAvailable() {
		t.Error("exhausted cwnd must not count as available")
	}
	// A backup subflow with headroom counts only when it is the only
	// kind there is.
	backup := &SubflowView{Handle: 2}
	backup.Ints[SbfCwnd] = 10
	backup.Bools[SbfIsBackup] = true
	env.SubflowViews = []*SubflowView{view, backup}
	if env.WorkAvailable() {
		t.Error("a backup subflow must not count while a non-backup one exists")
	}
	env.SubflowViews = []*SubflowView{backup}
	if !env.WorkAvailable() {
		t.Error("a lone backup subflow with headroom must count as available")
	}
	if NewEnv([]*SubflowView{backup}, nil, nil, nil, nil).WorkAvailable() {
		t.Error("an empty Q must not report work available")
	}
}

func TestFactsQuantifyOverSubflows(t *testing.T) {
	lossyPrimary := SubflowAtoms(false, true, false, 10, 3) // ¬TSQ, headroom, primary
	fullBackup := SubflowAtoms(false, false, true, 10, 10)  // ¬TSQ, ¬LOSSY
	f := QueueFacts(true, false, true).WithSubflow(lossyPrimary).WithSubflow(fullBackup)
	for _, c := range []struct {
		m    Atoms
		some bool
	}{
		{0, true},
		{AtomNotTSQ | AtomHeadroom | AtomPrimary, true},
		{AtomNotTSQ | AtomNotLossy, true},
		{AtomNotLossy | AtomHeadroom, false},
		{AtomsAvail, false},
		{AtomPrimary, true},
	} {
		if f.Some(c.m) != c.some {
			t.Errorf("some(%v) = %v, want %v", c.m, !c.some, c.some)
		}
	}
	if f&FactQEmpty == 0 || f&FactQUEmpty != 0 || f&FactRQEmpty == 0 {
		t.Errorf("queue facts %#x: want Q and RQ empty, QU not", f&7)
	}
	cert := Certificate{N: 2, Terms: [MaxTerms]Term{
		{Set: FactQUEmpty},
		{Set: FactRQEmpty, Clear: SomeFact(AtomsAvail)},
	}}
	if !cert.Holds(f) || cert.Holds(f|SomeFact(AtomsAvail)) || (*Certificate)(nil).Holds(f) {
		t.Errorf("%v: holds on %#x, not with an available subflow, and never when nil", &cert, f)
	}
}
