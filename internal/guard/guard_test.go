package guard

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// --- broken schedulers under test -----------------------------------

// panicky panics on every execution until calm, then delegates.
type panicky struct {
	execs int
	calm  int // panic while execs <= calm... calm==-1: always panic
	inner Scheduler
}

func (p *panicky) Exec(env *runtime.Env) {
	p.execs++
	if p.calm < 0 || p.execs <= p.calm {
		panic("scheduler bug")
	}
	p.inner.Exec(env)
}

// staller never emits an action — a dead scheduling block.
type staller struct{ execs int }

func (s *staller) Exec(*runtime.Env) { s.execs++ }

// forger appends out-of-range actions directly to the action queue,
// bypassing the cooperative env.Push API.
type forger struct{}

func (forger) Exec(env *runtime.Env) {
	env.Actions = append(env.Actions,
		runtime.Action{Kind: runtime.ActionPush, Packet: 1 << 40, Subflow: 99},
		runtime.Action{Kind: runtime.ActionPop, Queue: runtime.QueueSend, Packet: 1 << 40},
	)
}

// --- end-to-end harness ---------------------------------------------

// transferUnder runs an 8 MiB transfer over two healthy paths with the
// supervised scheduler installed and returns the supervisor and the
// conservation verdict after the horizon. The transfer takes over a
// second, so the first probation (500 ms) begins while data is queued.
func transferUnder(t *testing.T, inner Scheduler) (*Supervisor, error) {
	t.Helper()
	eng := netsim.NewEngine(1)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	for _, d := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: "p", Rate: netsim.ConstantRate(3e6), Delay: d,
		})
		if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "p", Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	sup := New(inner, Config{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
		Wake:  conn.Kick,
	})
	conn.SetScheduler(sup)
	chk := mptcp.NewConservationChecker(conn)
	const total = 8 << 20
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(120 * time.Second)
	return sup, chk.Check(total)
}

func TestPanickingSchedulerDegradesAndCompletes(t *testing.T) {
	sup, err := transferUnder(t, &panicky{calm: -1})
	if err != nil {
		t.Fatalf("transfer under always-panicking scheduler: %v", err)
	}
	if sup.Panics < 3 {
		t.Errorf("Panics = %d, want >= %d (maxStrikes)", sup.Panics, maxStrikes)
	}
	if sup.Quarantines == 0 {
		t.Error("always-panicking scheduler never quarantined")
	}
}

func TestStallingSchedulerDegradesAndCompletes(t *testing.T) {
	inner := &staller{}
	sup, err := transferUnder(t, inner)
	if err != nil {
		t.Fatalf("transfer under dead-stop stalling scheduler: %v", err)
	}
	if sup.Stalls == 0 {
		t.Error("no stall strikes recorded")
	}
	if sup.Quarantines == 0 {
		t.Error("stalling scheduler never quarantined")
	}
	if inner.execs == 0 {
		t.Error("inner scheduler never executed")
	}
	// Its probation executions leave the queued data unsent, so none of
	// them is clean: it never earns its way back.
	if sup.Restores != 0 {
		t.Errorf("a scheduler that never pushes was restored %d times", sup.Restores)
	}
}

func TestForgedActionsStrippedAndCompletes(t *testing.T) {
	sup, err := transferUnder(t, forger{})
	if err != nil {
		t.Fatalf("transfer under action-forging scheduler: %v", err)
	}
	if sup.Violations == 0 {
		t.Error("no forged actions stripped")
	}
	if sup.Quarantines == 0 {
		t.Error("forging scheduler never quarantined")
	}
}

// TestProbationRestoresRecoveredScheduler checks the full state cycle:
// active → quarantined → probation → active once the scheduler stops
// misbehaving, with the transfer completing throughout.
func TestProbationRestoresRecoveredScheduler(t *testing.T) {
	inner := &panicky{calm: 3, inner: sched.MinRTT{}}
	sup, err := transferUnder(t, inner)
	if err != nil {
		t.Fatalf("transfer across quarantine/restore cycle: %v", err)
	}
	if sup.Quarantines == 0 {
		t.Fatal("scheduler never quarantined")
	}
	if sup.Restores == 0 {
		t.Fatal("recovered scheduler never restored")
	}
	if sup.State() != StateActive {
		t.Errorf("final state %v, want active", sup.State())
	}
}

// TestRepeatQuarantineBacksOffExponentially: a scheduler that keeps
// misbehaving earns doubling quarantine windows, visible in the
// EvGuardQuarantine events' Aux payloads.
func TestRepeatQuarantineBacksOffExponentially(t *testing.T) {
	sup, err := transferUnder(t, &panicky{calm: -1})
	if err != nil {
		t.Fatalf("transfer under flapping scheduler: %v", err)
	}
	if sup.Quarantines < 2 {
		t.Fatalf("Quarantines = %d, want >= 2 (probation must re-try and re-quarantine)", sup.Quarantines)
	}
}

// TestSupervisorEmitsEventsAndMetrics wires the full observability path
// and asserts transitions are visible the way progmp-trace reads them.
func TestSupervisorEmitsEventsAndMetrics(t *testing.T) {
	eng := netsim.NewEngine(2)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	link := netsim.NewLink(eng, netsim.PathConfig{
		Name: "p", Rate: netsim.ConstantRate(3e6), Delay: 5 * time.Millisecond,
	})
	if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "p", Link: link}); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1 << 16) // holds the whole run
	reg := obs.NewRegistry()
	conn.Instrument(tracer, reg)
	sup := New(&panicky{calm: 3, inner: sched.MinRTT{}}, Config{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
		Wake:  conn.Kick,
	})
	sup.Instrument(tracer, conn.TraceConnID(), reg)
	conn.SetScheduler(sup)
	chk := mptcp.NewConservationChecker(conn)
	// Long enough (1.4 s) that the 500 ms probation begins mid-transfer.
	const total = 4 << 20
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(60 * time.Second)
	if err := chk.Check(total); err != nil {
		t.Fatal(err)
	}

	kinds := make(map[obs.EventKind]int)
	for _, ev := range tracer.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.EventKind{
		obs.EvGuardPanic, obs.EvGuardQuarantine, obs.EvGuardProbe, obs.EvGuardRestore,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v event recorded", want)
		}
	}
	if got := reg.Counter("guard.panics").Value(); got != sup.Panics {
		t.Errorf("guard.panics metric %d != %d", got, sup.Panics)
	}
	if got := reg.Counter("guard.quarantines").Value(); got == 0 {
		t.Error("guard.quarantines metric is 0")
	}
	if got := reg.Gauge("guard.state").Value(); got != int64(sup.State()) {
		t.Errorf("guard.state gauge %d != state %d", got, sup.State())
	}
}

// counting wraps a scheduler and counts its executions, so a test can
// tell which program actually served the connection.
type counting struct {
	inner Scheduler
	execs int
}

func (c *counting) Exec(env *runtime.Env) {
	c.execs++
	c.inner.Exec(env)
}

// TestSwapQuarantinesBackToPreviousProgram is the control-plane
// composition: hot-swapping a live supervised connection to a broken
// scheduler must degrade back to the program that was running before
// the swap — not to native MinRTT.
func TestSwapQuarantinesBackToPreviousProgram(t *testing.T) {
	eng := netsim.NewEngine(5)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	for _, d := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: "p", Rate: netsim.ConstantRate(2e6), Delay: d,
		})
		if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "p", Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	prev := &counting{inner: sched.MinRTT{}}
	sup := New(prev, Config{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
		Wake:  conn.Kick,
	})
	conn.SetScheduler(sup)
	chk := mptcp.NewConservationChecker(conn)

	const total = 1 << 20
	eng.After(0, func() { conn.Send(total, 0) })
	execsAtSwap := -1
	eng.At(300*time.Millisecond, func() {
		if conn.AllAcked() {
			t.Fatal("transfer finished before the swap; grow it")
		}
		execsAtSwap = prev.execs
		sup.Swap(&staller{}, sup.Inner())
		conn.Kick()
	})
	eng.RunUntil(120 * time.Second)

	if err := chk.Check(total); err != nil {
		t.Fatalf("transfer across bad swap: %v", err)
	}
	if execsAtSwap < 0 {
		t.Fatal("swap callback never ran")
	}
	if sup.Quarantines == 0 {
		t.Fatal("broken swapped-in scheduler never quarantined")
	}
	if got := sup.fallback; got != Scheduler(prev) {
		t.Fatalf("quarantine fallback is %T, want the previous program", got)
	}
	if prev.execs <= execsAtSwap {
		t.Fatalf("previous program never served the quarantine (execs %d at swap, %d at end)",
			execsAtSwap, prev.execs)
	}
	if sup.State() == StateActive {
		t.Error("supervisor re-promoted the dead scheduler")
	}
}

// TestSwapResetsSupervisionState: a supervisor that already degraded
// restarts clean when retargeted.
func TestSwapResetsSupervisionState(t *testing.T) {
	sup := New(&staller{}, Config{})
	env := syntheticEnv()
	for i := 0; i < 3; i++ {
		sup.Exec(env)
		env.Actions = env.Actions[:0]
		sup.strike(env)
	}
	if sup.State() != StateQuarantined {
		t.Fatalf("setup: state %v, want quarantined", sup.State())
	}
	good := sched.MinRTT{}
	sup.Swap(good, nil)
	if sup.State() != StateActive || sup.Strikes() != 0 {
		t.Fatalf("after Swap: state %v strikes %d, want active/0", sup.State(), sup.Strikes())
	}
	if sup.Inner() != Scheduler(good) {
		t.Fatal("Swap did not install the new program")
	}
}

// TestSwapDisarmsProbationTimer: the probation timer of a quarantine
// that a swap ended must not end a later quarantine early. Quarantined
// at 0 ms (timer due at 500 ms), swapped at 100 ms and quarantined
// again at 400 ms with the reset 500 ms backoff, the supervisor stays
// quarantined through 600 ms and goes on probation at 900 ms.
func TestSwapDisarmsProbationTimer(t *testing.T) {
	r := newPolicyRig(freshEnv)
	r.quarantine()
	r.eng.RunUntil(100 * time.Millisecond)
	r.sup.Swap(r.inner, nil)
	r.eng.RunUntil(400 * time.Millisecond)
	r.quarantine()
	r.eng.RunUntil(600 * time.Millisecond)
	if got := r.sup.State(); got != StateQuarantined {
		t.Fatalf("at 600 ms: state %v, want quarantined (the swapped-out quarantine's timer fired)", got)
	}
	r.eng.RunUntil(900 * time.Millisecond)
	if got := r.sup.State(); got != StateProbation {
		t.Fatalf("at 900 ms: state %v, want probation", got)
	}
}

// --- unit tests against a synthetic environment ---------------------

func syntheticEnv() *runtime.Env {
	view := &runtime.SubflowView{Handle: 1}
	view.Ints[runtime.SbfCwnd] = 10
	pv := &runtime.PacketView{Handle: 1}
	pv.Ints[runtime.PktSize] = 1460
	var regs [runtime.NumRegisters]int64
	return runtime.NewEnv(
		[]*runtime.SubflowView{view},
		[]*runtime.PacketView{pv}, nil, nil,
		&regs,
	)
}

// TestQuarantineCarriesAdmissionWarnings is the analyzer/supervisor
// composition: a DSL scheduler that the static-analysis admission gate
// flagged (no-push) but that was installed anyway must, when the
// supervisor quarantines it for stalling, stamp the analyzer's warning
// count into the quarantine event's Site field.
func TestQuarantineCarriesAdmissionWarnings(t *testing.T) {
	// SET-only program: admitted with a no-push warning, then stalls.
	sched, err := core.Load("noPush", "SET(R1, R1 + 1);", core.BackendInterpreter)
	if err != nil {
		t.Fatal(err)
	}
	warnings := sched.AdmissionWarnings()
	if warnings == 0 {
		t.Fatal("test premise broken: no-push program carries no analyzer warnings")
	}

	eng := netsim.NewEngine(3)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	link := netsim.NewLink(eng, netsim.PathConfig{
		Name: "p", Rate: netsim.ConstantRate(3e6), Delay: 5 * time.Millisecond,
	})
	if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "p", Link: link}); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(4096)
	conn.Instrument(tracer, nil)
	sup := New(sched, Config{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
		Wake:  conn.Kick,
	})
	sup.Instrument(tracer, conn.TraceConnID(), nil)
	conn.SetScheduler(sup)
	eng.After(0, func() { conn.Send(64<<10, 0) })
	eng.RunUntil(30 * time.Second)

	if sup.Quarantines == 0 {
		t.Fatal("stalling no-push scheduler never quarantined")
	}
	var sawQuarantine bool
	for _, ev := range tracer.Events() {
		if ev.Kind != obs.EvGuardQuarantine {
			continue
		}
		sawQuarantine = true
		if ev.Site != int32(warnings) {
			t.Errorf("quarantine event Site = %d, want admission warning count %d", ev.Site, warnings)
		}
	}
	if !sawQuarantine {
		t.Fatal("no quarantine event in the trace")
	}
}

// fillCounter is a QueueSource of n packets that counts the views it
// fills.
type fillCounter struct {
	base, fills int
}

func (f *fillCounter) MaterializePacket(i int, v *runtime.PacketView) {
	f.fills++
	*v = runtime.PacketView{Handle: runtime.PacketHandle(f.base + i + 1)}
	v.Ints[runtime.PktSize] = 1460
}

// pushQUTop retransmits QU's head on the first subflow.
type pushQUTop struct{}

func (pushQUTop) Exec(env *runtime.Env) { env.Push(env.SubflowViews[0], env.UnackedQ.Top()) }

// TestGuardedExecMaterializesOnlyWhatTheSchedulerRead pins the late
// materialization of the snapshot (§4.1) under supervision: a
// scheduler that reads QU's head costs one view fill, however long Q
// is. The supervisor does not look at the queues on its own.
func TestGuardedExecMaterializesOnlyWhatTheSchedulerRead(t *testing.T) {
	arena := runtime.NewArena(nil)
	views := arena.BindSubflows(1)
	*views[0] = runtime.SubflowView{Handle: 1}
	views[0].Ints[runtime.SbfCwnd] = 10
	q := &fillCounter{base: 100}
	qu := &fillCounter{base: 0}
	arena.BindQueue(runtime.QueueSend, q, 10000, false)
	arena.BindQueue(runtime.QueueUnacked, qu, 100, false)
	arena.BindQueue(runtime.QueueReinject, &fillCounter{}, 0, false)
	arena.BeginExec()
	env := arena.Env()

	New(pushQUTop{}, Config{}).Exec(env)
	if len(env.Actions) != 1 || env.Actions[0].Packet != 1 {
		t.Fatalf("actions %+v, want one PUSH of QU's head", env.Actions)
	}
	if fills := q.fills + qu.fills; fills != 1 {
		t.Errorf("a supervised execution that reads QU.TOP filled %d views (Q %d, QU %d), want 1", fills, q.fills, qu.fills)
	}
}
