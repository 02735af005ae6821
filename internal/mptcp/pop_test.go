package mptcp

import (
	"fmt"
	"testing"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/runtime"
)

// popRig is a connection with ten segments transmitted on subflow 0,
// ten more waiting in Q, and seqs 5, 3 and 9 reinjected in that order:
// Q [10..19], QU [0 1 2 4 6 7 8], RQ [5 3 9] (loss-ordered). No
// scheduler is installed and the clock stands still, so only the
// actions a test applies move anything.
func popRig(t *testing.T) *Conn {
	t.Helper()
	eng := netsim.NewEngine(1)
	c := NewConn(eng, Config{})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{Name: name, Rate: netsim.ConstantRate(10e6), Delay: 10 * time.Millisecond})
		if _, err := c.AddSubflow(SubflowConfig{Name: name, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(50 * time.Millisecond) // establish both subflows
	c.Send(20*1460, 0)
	applyExec(c, func(env *runtime.Env) {
		for i := 0; i < 10; i++ {
			env.Push(env.SubflowViews[0], env.SendQ.At(i))
		}
	})
	for _, seq := range []int64{5, 3, 9} {
		c.addReinject(c.win.at(seq))
	}
	if got, want := queueSeqs(c), "Q [10 11 12 13 14 15 16 17 18 19] QU [0 1 2 4 6 7 8] RQ [5 3 9]"; got != want {
		t.Fatalf("rig: %s, want %s", got, want)
	}
	return c
}

// applyExec runs exec as one scheduler execution against c's snapshot
// and applies its actions, returning applyActions' progress.
func applyExec(c *Conn, exec func(env *runtime.Env)) bool {
	env := c.buildEnv(c.takeArena())
	exec(env)
	progress, _ := c.applyActions(env)
	return progress
}

// queueSeqs renders the sequence numbers in Q, QU and RQ, in order.
func queueSeqs(c *Conn) string {
	return fmt.Sprintf("Q %v QU %v RQ %v", seqsOf(c.queues[inQ].all()), seqsOf(c.queues[inQU].all()), seqsOf(c.queues[inRQ].all()))
}

// TestAbandonedPopLeavesQueuesAsTheyWere pins what a POP commits:
// nothing. A popped packet that is neither pushed nor dropped stays
// where it was — the loss-ordered RQ keeps its order, and a Q head
// whose PUSH the subflow refuses keeps its place — and DROP(X.POP())
// ends exactly as DROP(X.TOP) does, in the queues and in the progress
// applyActions reports.
func TestAbandonedPopLeavesQueuesAsTheyWere(t *testing.T) {
	c := popRig(t)
	before := queueSeqs(c)
	if applyExec(c, func(env *runtime.Env) { env.Pop(runtime.QueueReinject, env.ReinjectQ.Top()) }) {
		t.Error("an abandoned RQ.POP() reported progress")
	}
	if got := queueSeqs(c); got != before {
		t.Errorf("abandoned RQ.POP(): %s, want %s", got, before)
	}
	checkQueueInvariants(t, c, 0)

	c = popRig(t)
	c.rwnd = 0 // the peer's window refuses new data
	if applyExec(c, func(env *runtime.Env) {
		p := env.SendQ.Top()
		env.Pop(runtime.QueueSend, p)
		env.Push(env.SubflowViews[0], p)
	}) {
		t.Error("a refused PUSH of the popped Q head reported progress")
	}
	if got := queueSeqs(c); got != before {
		t.Errorf("refused PUSH(Q.POP()): %s, want %s", got, before)
	}
	checkQueueInvariants(t, c, 0)

	for _, id := range []runtime.QueueID{runtime.QueueUnacked, runtime.QueueReinject} {
		popped, top := popRig(t), popRig(t)
		pp := applyExec(popped, func(env *runtime.Env) {
			p := env.Queue(id).Top()
			env.Pop(id, p)
			env.Drop(p)
		})
		pt := applyExec(top, func(env *runtime.Env) { env.Drop(env.Queue(id).Top()) })
		if pp != pt {
			t.Errorf("DROP(%v.POP()) reports progress %v, DROP(%v.TOP) %v", id, pp, id, pt)
		}
		if got, want := queueSeqs(popped), queueSeqs(top); got != want {
			t.Errorf("DROP(%v.POP()) leaves %s, DROP(%v.TOP) %s", id, got, id, want)
		}
		checkQueueInvariants(t, popped, 0)
		checkQueueInvariants(t, top, 0)
	}
}
