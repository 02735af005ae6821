package mptcp

import (
	"math/rand"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/guard"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

// adversarialExec plays a hostile scheduler against one snapshot: it
// pops packets and then abandons, pushes, or drops them at random —
// including pushes without a preceding pop, drops of never-transmitted
// data, and redundant re-pushes — so applyActions has to exercise
// every commit path, and leave every abandoned pop where it was.
func adversarialExec(env *runtime.Env, rng *rand.Rand) {
	type visible struct {
		v *runtime.PacketView
		q runtime.QueueID
	}
	var views []visible
	for _, id := range []runtime.QueueID{runtime.QueueSend, runtime.QueueUnacked, runtime.QueueReinject} {
		q := env.Queue(id)
		if q == nil {
			continue
		}
		for i := q.NextVisible(-1); i >= 0; i = q.NextVisible(i) {
			views = append(views, visible{v: q.At(i), q: id})
		}
	}
	sbfs := env.SubflowViews
	// Shuffle so pops/pushes are not issued in queue order.
	rng.Shuffle(len(views), func(i, j int) { views[i], views[j] = views[j], views[i] })
	for n, ent := range views {
		if n >= 48 { // bound per-round work on large queues
			break
		}
		switch rng.Intn(7) {
		case 0, 1: // pop and abandon → must stay where it was
			env.Pop(ent.q, ent.v)
		case 2: // pop then push
			env.Pop(ent.q, ent.v)
			if len(sbfs) > 0 {
				env.Push(sbfs[rng.Intn(len(sbfs))], ent.v)
			}
		case 3: // push without a pop (actions are independent)
			if len(sbfs) > 0 {
				env.Push(sbfs[rng.Intn(len(sbfs))], ent.v)
			}
		case 4: // pop then drop
			env.Pop(ent.q, ent.v)
			env.Drop(ent.v)
		case 5: // drop in place; never-sent data must stay in Q
			env.Drop(ent.v)
		default: // leave it alone
		}
	}
}

// checkSkipSent asks QU where a scan filtering !p.SENT_ON(s) starts,
// for every subflow view s, and fails unless the answer is the position
// before the first packet a literal walk from the head finds not sent
// on s. The asks move the sent cursors, which checkQueueInvariants then
// holds to their invariant through the round's hostile actions.
func checkSkipSent(t *testing.T, env *runtime.Env, round int) {
	t.Helper()
	for _, s := range env.SubflowViews {
		want := -1
		for env.UnackedQ.At(want+1) != nil && env.UnackedQ.At(want+1).SentOn(s) {
			want++
		}
		if got := env.UnackedQ.SkipSent(s); got != want {
			t.Fatalf("round %d: QU SkipSent(subflow %d) = %d, a walk from the head says %d", round, s.Ints[runtime.SbfID], got, want)
		}
	}
}

// checkQueueInvariants asserts the structural invariants the
// scheduling substrate promises regardless of scheduler behaviour:
// the queues partition the packets — each packet's where names the one
// list that holds it, once — strict sequence ordering for Q and QU (the
// sorted inserts binary-search, so a single out-of-order insert would
// corrupt them), no acknowledged packet lingering in a queue or in the
// window, every subflow's send window consistent (checkSendWindow), the
// sent cursors' invariant (sent.go), and byte conservation — every
// unacked segment reachable from a queue or an in-flight transmission
// record.
func checkQueueInvariants(t *testing.T, c *Conn, round int) {
	t.Helper()
	lists := []struct {
		name   string
		l      *packetList
		where  place
		sorted bool
	}{
		{"Q", &c.queues[inQ], inQ, true},
		{"QU", &c.queues[inQU], inQU, true},
		{"RQ", &c.queues[inRQ], inRQ, false}, // RQ is loss-ordered, not seq-ordered
	}
	listed := make(map[*Packet]bool)
	for _, ent := range lists {
		live := ent.l.all()
		if i, p := straySlot(ent.l); p != nil {
			t.Fatalf("round %d: %s slot %d, outside its live range [%d,%d), holds seq %d", round, ent.name, i, ent.l.head, len(ent.l.pkts), p.Seq)
		}
		for i, p := range live {
			if listed[p] {
				t.Fatalf("round %d: %s holds seq %d, which a queue already holds", round, ent.name, p.Seq)
			}
			listed[p] = true
			if p.where != ent.where {
				t.Fatalf("round %d: %s holds seq %d whose where is %d, want %d", round, ent.name, p.Seq, p.where, ent.where)
			}
			if c.win.at(p.Seq) != p {
				t.Fatalf("round %d: %s holds seq %d, which the sender window does not", round, ent.name, p.Seq)
			}
			if ent.sorted && i > 0 && live[i-1].Seq >= p.Seq {
				t.Fatalf("round %d: %s out of order at %d: seq %d before seq %d",
					round, ent.name, i, live[i-1].Seq, p.Seq)
			}
		}
	}
	checkSentCursors(t, c, round)
	inFlight := make(map[int64]bool) // by meta sequence number
	for _, s := range c.subflows {
		checkSendWindow(t, s)
		for seq := s.sent.base; seq < s.sent.end(); seq++ {
			if rec := s.sent.at(seq); rec.live() {
				inFlight[rec.metaSeq] = true
			}
		}
	}
	// A segment may legally vanish from the sender's queues before the
	// cumulative DATA_ACK covers it only once its data is safely at the
	// receiver (delivered in order, or buffered out of order awaiting
	// earlier sequence numbers).
	receiverHas := func(p *Packet) bool {
		return p.Seq < c.receiver.ooo.base || c.receiver.ooo.at(p.Seq).received
	}
	for seq := c.win.base; seq < c.win.end; seq++ {
		p := c.win.at(seq)
		if p == nil || p.Seq != seq {
			t.Fatalf("round %d: sender window holds %+v at seq %d", round, p, seq)
		}
		if (p.where != nowhere) != listed[p] {
			t.Fatalf("round %d: seq %d has where %d but listed = %v", round, seq, p.where, listed[p])
		}
		if !listed[p] && !inFlight[seq] && !receiverHas(p) {
			t.Fatalf("round %d: unacked seq %d reachable from no queue, no in-flight record, and not at receiver",
				round, p.Seq)
		}
	}
}

// TestAdversarialActionsPreserveInvariants drives a connection through
// hundreds of randomized hostile scheduler executions — interleaved
// with real clock advances so transmissions complete and DATA_ACKs
// land — and checks the queue invariants after every single
// applyActions pass. It then hands the (by now thoroughly scrambled)
// connection to a well-behaved scheduler and requires exact
// exactly-once in-order delivery of every byte, proving the substrate
// lost nothing along the way.
func TestAdversarialActionsPreserveInvariants(t *testing.T) {
	eng := netsim.NewEngine(7)
	conn := NewConn(eng, Config{})
	for _, pc := range []netsim.PathConfig{
		{Name: "fast", Rate: netsim.ConstantRate(20e6), Delay: 5 * time.Millisecond},
		{Name: "slow", Rate: netsim.ConstantRate(5e6), Delay: 30 * time.Millisecond},
		{Name: "thin", Rate: netsim.ConstantRate(1e6), Delay: 60 * time.Millisecond},
	} {
		if _, err := conn.AddSubflow(SubflowConfig{Name: pc.Name, Link: netsim.NewLink(eng, pc)}); err != nil {
			t.Fatal(err)
		}
	}
	chk := NewConservationChecker(conn)
	eng.RunUntil(10 * time.Millisecond) // establish subflows

	rng := rand.New(rand.NewSource(20260805))
	total := 0
	send := func(n int) {
		conn.Send(n, int64(rng.Intn(3)))
		total += n
	}
	send(96 * 1460)

	const rounds = 400
	for round := 0; round < rounds; round++ {
		if round%37 == 0 {
			send(rng.Intn(16*1460) + 1)
		}
		env := conn.buildEnv(conn.takeArena())
		checkSkipSent(t, env, round)
		adversarialExec(env, rng)
		conn.applyActions(env)
		checkQueueInvariants(t, conn, round)
		if rng.Intn(3) == 0 {
			// Let transmissions drain and acknowledgements arrive so
			// later rounds see QU/RQ churn and meta-ack removals.
			eng.RunUntil(eng.Now() + time.Duration(rng.Intn(15)+1)*time.Millisecond)
			checkQueueInvariants(t, conn, round)
		}
	}

	// Recovery: a sane scheduler must be able to finish the transfer.
	conn.SetScheduler(core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM))
	conn.Kick()
	eng.RunUntil(eng.Now() + 120*time.Second)
	if !conn.AllAcked() {
		t.Fatalf("transfer wedged after adversarial phase: %d queued, %d unacked",
			conn.QueuedSegments(), conn.UnackedSegments())
	}
	if err := chk.Check(int64(total)); err != nil {
		t.Fatalf("conservation after adversarial scheduling: %v", err)
	}
}

// busyMinRTT is minRTT plus a register write on every execution: the
// analyzer can certify no fact assignment quiescent, so every trigger
// runs an execution even with both windows full.
const busyMinRTT = schedlib.MinRTT + "SET(R6, R6 + 1);\n"

// TestScheduleSteadyStateZeroAlloc pins the full per-trigger
// scheduling block — snapshot build, scheduler execution, action
// apply — at zero allocations once the connection's arena and
// scratch buffers are warm. The connection is parked in a state where
// the congestion window is exhausted (data queued, acks withheld), so
// every Kick runs a real execution over populated queues without
// transmitting; this is exactly the hot path the lazy snapshot arena
// exists for. The program is busyMinRTT: minRTT's certificate would
// skip every one of these executions.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := netsim.NewEngine(3)
	conn := NewConn(eng, Config{})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: name, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	s := core.MustLoad("busyMinRTT", busyMinRTT, core.BackendVM)
	conn.SetScheduler(s)
	eng.RunUntil(10 * time.Millisecond)

	// Fill both congestion windows; with the engine paused no acks
	// arrive, so subsequent executions select nothing and the pass is
	// pure snapshot + execute + (empty) apply.
	conn.Send(1<<20, 0)
	for i := 0; i < 64; i++ { // warm pools, specialization, scratch
		conn.Kick()
	}
	if n := testing.AllocsPerRun(200, conn.Kick); n != 0 {
		t.Fatalf("steady-state scheduling pass allocates %.1f times per trigger, want 0", n)
	}
}

// TestInstrumentedScheduleZeroAlloc is the metrics-on variant of
// TestScheduleSteadyStateZeroAlloc: with a registry attached, the
// scheduling block additionally times one execution in 16 into the
// conn.sched_exec_ns / conn.sched_apply_ns latency histograms, and must
// still allocate nothing per trigger. The timed executions are exactly
// those whose conn.sched_execs count timedExec picks, so over the
// measured window the histograms advance by the picked counts the
// counter passes. Like its uninstrumented twin it runs busyMinRTT, so
// the window's triggers execute.
func TestInstrumentedScheduleZeroAlloc(t *testing.T) {
	eng := netsim.NewEngine(4)
	conn := NewConn(eng, Config{})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: name, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	s := core.MustLoad("busyMinRTT", busyMinRTT, core.BackendVM)
	conn.SetScheduler(s)
	reg := obs.NewRegistry()
	conn.Instrument(nil, reg)
	eng.RunUntil(10 * time.Millisecond)

	conn.Send(1<<20, 0)
	for i := 0; i < 64; i++ {
		conn.Kick()
	}
	execs := reg.Counter("conn.sched_execs")
	h := reg.Histogram("conn.sched_exec_ns")
	execs0, count0 := execs.Value(), h.Count()
	if n := testing.AllocsPerRun(200, conn.Kick); n != 0 {
		t.Fatalf("instrumented scheduling pass allocates %.1f times per trigger, want 0", n)
	}
	execs1 := execs.Value()
	var want int64
	for n := execs0 + 1; n <= execs1; n++ {
		if timedExec(n) {
			want++
		}
	}
	if want == 0 {
		t.Fatalf("window ran %d executions and timed none of them", execs1-execs0)
	}
	if got := h.Count() - count0; got != want {
		t.Fatalf("exec latency histogram advanced by %d over executions %d..%d, want %d", got, execs0+1, execs1, want)
	}
	if h.Quantile(0.50) <= 0 {
		t.Fatalf("exec latency p50 = %d, want > 0", h.Quantile(0.50))
	}
	if a := reg.Histogram("conn.sched_apply_ns"); a.Count() != h.Count() {
		t.Fatalf("apply histogram count %d != exec count %d", a.Count(), h.Count())
	}
}

// TestSkippedScheduleZeroAlloc is the quiescent variant of
// TestScheduleSteadyStateZeroAlloc: under minRTT with both windows full
// the certificate holds, so a trigger checks the connection's facts,
// builds no snapshot, executes nothing and allocates nothing.
func TestSkippedScheduleZeroAlloc(t *testing.T) {
	eng := netsim.NewEngine(3)
	conn := NewConn(eng, Config{})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: name, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	s := core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM)
	conn.SetScheduler(s)
	eng.RunUntil(10 * time.Millisecond)

	conn.Send(1<<20, 0)
	for i := 0; i < 64; i++ {
		conn.Kick()
	}
	execs := conn.SchedulerExecutions
	if n := testing.AllocsPerRun(200, conn.Kick); n != 0 {
		t.Fatalf("skipped scheduling pass allocates %.1f times per trigger, want 0", n)
	}
	if conn.SchedulerExecutions != execs {
		t.Fatalf("executions %d → %d: full windows under minRTT should skip every trigger", execs, conn.SchedulerExecutions)
	}
}

// dropQUHead runs its scheduler, then drops QU's head: an action the
// connection applies as a graceful non-effect, so every execution ends
// with an action for the supervisor to settle.
type dropQUHead struct{ Scheduler }

func (d dropQUHead) Exec(env *runtime.Env) {
	d.Scheduler.Exec(env)
	env.Drop(env.UnackedQ.Top())
}

// TestSupervisedScheduleZeroAlloc is the supervised variant of
// TestScheduleSteadyStateZeroAlloc: with a guard.Supervisor installed,
// the pass additionally recovers panics around the execution and hands
// the refusal count to the supervisor after the apply, and must still
// allocate nothing per trigger.
func TestSupervisedScheduleZeroAlloc(t *testing.T) {
	eng := netsim.NewEngine(3)
	conn := NewConn(eng, Config{})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: name, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	s := core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM)
	sup := guard.New(dropQUHead{s}, guard.Config{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
		Wake:  conn.Kick,
	})
	conn.SetScheduler(sup)
	eng.RunUntil(10 * time.Millisecond)

	conn.Send(1<<20, 0)
	for i := 0; i < 64; i++ {
		conn.Kick()
	}
	execs := conn.SchedulerExecutions
	if n := testing.AllocsPerRun(200, conn.Kick); n != 0 {
		t.Fatalf("supervised scheduling pass allocates %.1f times per trigger, want 0", n)
	}
	if conn.SchedulerExecutions <= execs || sup.Violations != 0 || sup.State() != guard.StateActive {
		t.Fatalf("executions %d → %d, violations %d, state %v: the supervised pass did not run clean",
			execs, conn.SchedulerExecutions, sup.Violations, sup.State())
	}
}
