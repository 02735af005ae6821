package mptcp

import (
	"math/rand"
	"testing"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/runtime"
)

// referenceValidate is the guard's former second validator, kept as the
// reference model of which actions a connection refuses: it checks
// every action against the snapshot and strips the invalid ones in
// place, returning how many it removed.
func referenceValidate(env *runtime.Env, before int) (stripped int) {
	if len(env.Actions) == before {
		return 0
	}
	sbfs := make(map[runtime.SubflowHandle]bool, len(env.SubflowViews))
	for _, v := range env.SubflowViews {
		sbfs[v.Handle] = true
	}
	inQueue := func(id runtime.QueueID, h runtime.PacketHandle) bool {
		q := env.Queue(id)
		for i := 0; ; i++ {
			p := q.At(i)
			if p == nil {
				return false
			}
			if p.Handle == h {
				return true
			}
		}
	}
	inAnyQueue := func(h runtime.PacketHandle) bool {
		return inQueue(runtime.QueueSend, h) ||
			inQueue(runtime.QueueUnacked, h) ||
			inQueue(runtime.QueueReinject, h)
	}
	kept := env.Actions[:before]
	for _, a := range env.Actions[before:] {
		ok := false
		switch a.Kind {
		case runtime.ActionPush:
			ok = sbfs[a.Subflow] && inAnyQueue(a.Packet)
		case runtime.ActionPop:
			ok = inQueue(a.Queue, a.Packet)
		case runtime.ActionDrop:
			ok = inAnyQueue(a.Packet)
		}
		if ok {
			kept = append(kept, a)
		} else {
			stripped++
		}
	}
	env.Actions = kept
	return stripped
}

// auditor is a seeded hostile scheduler: it keeps the transfer going
// and mixes in forged handles, stale (possibly acknowledged) handles,
// pushes to an unusable or missing subflow, wrong-queue POPs, and
// pushes, pops and drops of packets an earlier action of the same
// execution already moved. Before returning it computes what the
// reference validator would strike, minus the one intended difference:
// a PUSH on a live subflow of a packet that is in no queue but still in
// the send window is transmitted, not refused. Its Applied method, which
// the connection calls with the count it refused, checks that count
// against the expectation.
type auditor struct {
	t    *testing.T
	c    *Conn
	rng  *rand.Rand
	seen []runtime.PacketHandle
	// dropped holds the handles of sent packets the auditor dropped
	// from Q: in no queue, and in the send window until acknowledged.
	dropped []runtime.PacketHandle

	want           int
	execs, corners int
	refused        int64
}

// Applied settles the execution that just ran: the connection refused
// refused of its actions.
func (a *auditor) Applied(_ *runtime.Env, refused int) bool {
	if refused != a.want {
		a.t.Fatalf("execution %d: %d refused, want %d", a.execs, refused, a.want)
	}
	return false
}

func (a *auditor) remember(p *runtime.PacketView) {
	if p == nil {
		return
	}
	if len(a.seen) == 64 {
		copy(a.seen, a.seen[1:])
		a.seen = a.seen[:63]
	}
	a.seen = append(a.seen, p.Handle)
}

func (a *auditor) stale() runtime.PacketHandle {
	if len(a.seen) == 0 {
		return 1
	}
	return a.seen[a.rng.Intn(len(a.seen))]
}

func (a *auditor) Exec(env *runtime.Env) {
	a.execs++
	rng := a.rng
	a.remember(env.SendQ.Top())
	a.remember(env.UnackedQ.Top())
	a.remember(env.ReinjectQ.Top())

	// Progress: the first subflow with window headroom takes RQ's or
	// Q's head.
	var sbf *runtime.SubflowView
	for _, v := range env.SubflowViews {
		if v.Ints[runtime.SbfCwnd] > v.Ints[runtime.SbfSkbsInFlight]+v.Ints[runtime.SbfQueued] {
			sbf = v
			break
		}
	}
	if sbf != nil {
		if p := env.ReinjectQ.Top(); p != nil && rng.Intn(2) == 0 {
			env.Pop(runtime.QueueReinject, p)
			env.Push(sbf, p)
		} else if p := env.SendQ.Top(); p != nil {
			env.Pop(runtime.QueueSend, p)
			env.Push(sbf, p)
		}
	}
	var any *runtime.SubflowView
	if len(env.SubflowViews) > 0 {
		any = env.SubflowViews[rng.Intn(len(env.SubflowViews))]
	}
	anyHandle := runtime.SubflowHandle(1)
	if any != nil {
		anyHandle = any.Handle
	}
	direct := func(act runtime.Action) { env.Actions = append(env.Actions, act) }
	for n := rng.Intn(4); n > 0; n-- {
		switch rng.Intn(12) {
		case 0: // forged packet handle
			direct(runtime.Action{Kind: runtime.ActionPush, Packet: 1 << 40, Subflow: anyHandle})
		case 1: // stale handle, possibly acknowledged or in no queue
			h := a.stale()
			if len(a.dropped) > 0 && rng.Intn(2) == 0 {
				h = a.dropped[rng.Intn(len(a.dropped))]
			}
			direct(runtime.Action{Kind: runtime.ActionPush, Packet: h, Subflow: anyHandle})
		case 2: // the subflow that never establishes, or the closed one
			if p := env.SendQ.Top(); p != nil {
				direct(runtime.Action{Kind: runtime.ActionPush, Packet: p.Handle, Subflow: runtime.SubflowHandle(1 + 2*rng.Intn(2))})
			}
		case 3: // no such subflow
			if p := env.UnackedQ.Top(); p != nil {
				direct(runtime.Action{Kind: runtime.ActionPush, Packet: p.Handle, Subflow: 99})
			}
		case 4: // a POP naming the wrong queue
			if p := env.SendQ.Top(); p != nil {
				direct(runtime.Action{Kind: runtime.ActionPop, Queue: runtime.QueueID(1 + rng.Intn(2)), Packet: p.Handle})
			}
		case 5: // a second PUSH after the first moved the packet
			if p := env.SendQ.Top(); p != nil && any != nil {
				env.Push(any, p)
				env.Push(env.SubflowViews[0], p)
			}
		case 6: // a POP after a PUSH moved the packet
			if p := env.ReinjectQ.Top(); p != nil && any != nil {
				env.Push(any, p)
				env.Pop(runtime.QueueReinject, p)
			}
		case 7: // a QU packet: a graceful non-effect
			env.Drop(env.UnackedQ.Top())
		case 8: // an RQ packet: back to QU, then dropped again
			if p := env.ReinjectQ.Top(); p != nil {
				env.Drop(p)
				env.Drop(p)
			}
		case 9: // a stale DROP
			direct(runtime.Action{Kind: runtime.ActionDrop, Packet: a.stale()})
		case 10: // a stale POP
			direct(runtime.Action{Kind: runtime.ActionPop, Queue: runtime.QueueID(rng.Intn(3)), Packet: a.stale()})
		case 11: // Q's head: never sent is graceful, sent before leaves every queue
			if p := env.SendQ.Top(); p != nil && p.Ints[runtime.PktSentCount] > 0 {
				a.dropped = append(a.dropped, p.Handle)
			}
			env.Drop(env.SendQ.Top())
		}
	}

	saved := append([]runtime.Action(nil), env.Actions...)
	ref := referenceValidate(env, 0)
	env.Actions = append(env.Actions[:0], saved...)
	corners := 0
	for _, act := range env.Actions {
		if act.Kind != runtime.ActionPush || a.c.pktOf(act.Packet) == nil || inAnySnapshotQueue(env, act.Packet) {
			continue
		}
		for _, v := range env.SubflowViews {
			if v.Handle == act.Subflow {
				corners++
			}
		}
	}
	a.corners += corners
	a.want = ref - corners
	a.refused += int64(a.want)
}

func inAnySnapshotQueue(env *runtime.Env, h runtime.PacketHandle) bool {
	for id := runtime.QueueSend; id <= runtime.QueueReinject; id++ {
		q := env.Queue(id)
		for i := 0; q.At(i) != nil; i++ {
			if q.At(i).Handle == h {
				return true
			}
		}
	}
	return false
}

// TestRefusalsMatchReferenceValidator is the differential between the
// connection's refusal count and the reference validator: over 20
// seeded lossy two-path transfers with reinjection traffic and a
// subflow that closes mid-transfer, every execution's refusal count
// equals the reference's count, except for the stale PUSHes of
// unacknowledged packets in no queue, which the connection transmits.
func TestRefusalsMatchReferenceValidator(t *testing.T) {
	var execs, corners int
	var refused int64
	for seed := int64(1); seed <= 20; seed++ {
		eng := netsim.NewEngine(seed)
		conn := NewConn(eng, Config{})
		paths := []SubflowConfig{
			{Name: "a", Link: netsim.NewLink(eng, netsim.PathConfig{Name: "a", Rate: netsim.ConstantRate(8e6), Delay: 10 * time.Millisecond})},
			{Name: "b", Link: netsim.NewLink(eng, netsim.PathConfig{Name: "b", Rate: netsim.ConstantRate(4e6), Delay: 25 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.03}})},
			{Name: "late", Link: netsim.NewLink(eng, netsim.PathConfig{Name: "late", Rate: netsim.ConstantRate(1e6), Delay: time.Millisecond}), StartAt: time.Hour},
		}
		var sbfs []*Subflow
		for _, p := range paths {
			s, err := conn.AddSubflow(p)
			if err != nil {
				t.Fatal(err)
			}
			sbfs = append(sbfs, s)
		}
		a := &auditor{t: t, c: conn, rng: rand.New(rand.NewSource(seed))}
		conn.SetScheduler(a)
		eng.After(0, func() { conn.Send(256<<10, 0) })
		eng.At(time.Duration(100+seed*10)*time.Millisecond, sbfs[0].Close)
		eng.RunUntil(3 * time.Second)
		execs += a.execs
		corners += a.corners
		refused += a.refused
	}
	t.Logf("%d executions, %d refused actions, %d stale pushes transmitted", execs, refused, corners)
	if refused == 0 || corners == 0 {
		t.Fatalf("the mix never exercised a refusal (%d) or the intended difference (%d)", refused, corners)
	}
}
