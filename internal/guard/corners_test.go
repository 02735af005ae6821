package guard

import (
	"testing"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/runtime"
)

// scripted runs the step the test armed, once, and does nothing on
// every other execution.
type scripted struct{ step func(env *runtime.Env) }

func (s *scripted) Exec(env *runtime.Env) {
	if step := s.step; step != nil {
		s.step = nil
		step(env)
	}
}

// TestGuardCorners pins how the supervisor counts the actions a live
// connection refuses in the corners where an action's validity depends
// on where its packet was when the execution began:
//
//  1. a stale PUSH of a packet that is in no queue but not yet
//     acknowledged is transmitted, and nothing is refused;
//  2. PUSH(p) then POP(Q, p) in one execution refuses nothing;
//  3. a DROP of a QU packet moves nothing and refuses nothing;
//  4. a POP naming QU for a packet in Q is refused.
//
// The engine stays paused between steps, so no ACK moves a packet.
func TestGuardCorners(t *testing.T) {
	eng := netsim.NewEngine(1)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	var sbfs []*mptcp.Subflow
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		s, err := conn.AddSubflow(mptcp.SubflowConfig{Name: name, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		sbfs = append(sbfs, s)
	}
	a, b := sbfs[0], sbfs[1]
	inner := &scripted{}
	sup := New(inner, Config{})
	conn.SetScheduler(sup)
	eng.RunUntil(100 * time.Millisecond) // establish both subflows
	if !a.Established() || !b.Established() {
		t.Fatal("subflows not established")
	}
	conn.Send(8*1460, 0)
	run := func(name string, wantRefused int64, step func(env *runtime.Env)) {
		t.Helper()
		before := sup.Violations
		inner.step = step
		conn.Kick()
		if inner.step != nil {
			t.Fatalf("%s: the step never ran", name)
		}
		if sup.Panics != 0 {
			t.Fatalf("%s: the step panicked", name)
		}
		if got := sup.Violations - before; got != wantRefused {
			t.Errorf("%s: %d violations, want %d", name, got, wantRefused)
		}
	}

	// Setup for (1): p0 goes out on a, a closes and returns it to Q
	// (sent once), and a DROP takes it out of every queue.
	run("push p0 on a", 0, func(env *runtime.Env) {
		env.Push(env.SubflowViews[0], env.SendQ.Top())
	})
	a.Close()
	if conn.QueuedSegments() != 8 {
		t.Fatalf("after closing a, Q holds %d segments, want 8 (p0 back)", conn.QueuedSegments())
	}
	var p0 runtime.PacketHandle
	run("drop p0 from Q", 0, func(env *runtime.Env) {
		p := env.SendQ.Top()
		if p.Ints[runtime.PktSentCount] != 1 {
			t.Fatalf("Q head was sent %d times, want 1", p.Ints[runtime.PktSentCount])
		}
		p0 = p.Handle
		env.Drop(p)
	})
	if conn.QueuedSegments() != 7 || conn.UnackedSegments() != 0 {
		t.Fatalf("after the DROP: Q %d QU+RQ %d, want 7 and 0", conn.QueuedSegments(), conn.UnackedSegments())
	}

	// (1) The stale handle still resolves: the connection transmits it.
	sent := b.PktsSent
	// b was added second, so its id is 1 and its handle 2.
	run("stale push of p0 on b", 0, func(env *runtime.Env) {
		env.Actions = append(env.Actions, runtime.Action{Kind: runtime.ActionPush, Packet: p0, Subflow: runtime.SubflowHandle(2)})
	})
	if b.PktsSent != sent+1 || conn.UnackedSegments() != 1 {
		t.Errorf("stale push of p0: b sent %d, QU+RQ %d, want 1 and 1", b.PktsSent-sent, conn.UnackedSegments())
	}

	// (2) A POP of a packet that an earlier PUSH of the same execution
	// moved out of Q names the queue it was in when the execution began.
	run("push then pop", 0, func(env *runtime.Env) {
		p := env.SendQ.Top()
		env.Push(env.SubflowViews[0], p)
		env.Pop(runtime.QueueSend, p)
	})
	if conn.QueuedSegments() != 6 || conn.UnackedSegments() != 2 {
		t.Errorf("after push then pop: Q %d QU+RQ %d, want 6 and 2", conn.QueuedSegments(), conn.UnackedSegments())
	}

	// (3) A DROP of a QU packet is a graceful non-effect.
	run("drop a QU packet", 0, func(env *runtime.Env) {
		env.Drop(env.UnackedQ.Top())
	})
	if conn.QueuedSegments() != 6 || conn.UnackedSegments() != 2 {
		t.Errorf("after dropping a QU packet: Q %d QU+RQ %d, want 6 and 2", conn.QueuedSegments(), conn.UnackedSegments())
	}

	// (4) A forged POP naming the wrong queue is refused.
	run("pop naming QU for a Q packet", 1, func(env *runtime.Env) {
		env.Actions = append(env.Actions, runtime.Action{Kind: runtime.ActionPop, Queue: runtime.QueueUnacked, Packet: env.SendQ.Top().Handle})
	})
	if conn.QueuedSegments() != 6 || conn.UnackedSegments() != 2 {
		t.Errorf("after the wrong-queue POP: Q %d QU+RQ %d, want 6 and 2", conn.QueuedSegments(), conn.UnackedSegments())
	}
}
