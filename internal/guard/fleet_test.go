package guard

import (
	"sync"
	"testing"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// switchable panics while bad, otherwise does nothing (an intentionally
// idle but clean scheduler: empty env means no work available, so it
// never strikes for stalling).
type switchable struct {
	bad   bool
	push  bool // push Q's head on the first subflow
	execs int
}

func (s *switchable) Exec(env *runtime.Env) {
	s.execs++
	if s.bad {
		panic("poison program")
	}
	if s.push && len(env.SubflowViews) > 0 {
		env.Push(env.SubflowViews[0], env.SendQ.Top())
	}
}

// freshEnv builds a minimal valid environment (empty queues, no
// subflows) for unit-driving Supervisor.Exec.
func freshEnv() *runtime.Env {
	var regs [runtime.NumRegisters]int64
	return runtime.NewEnv(nil, nil, nil, nil, &regs)
}

// fleetRig is a unit-level fleet: n supervisors enrolled under one
// program name, all clocked by a shared virtual engine.
type fleetRig struct {
	eng    *netsim.Engine
	fleet  *Fleet
	tracer *obs.Tracer
	reg    *obs.Registry
	sups   []*Supervisor
	inners []*switchable
}

const rigProgram = "poison.progmp"

func newFleetRig(n int) *fleetRig {
	r := &fleetRig{
		eng:    netsim.NewEngine(1),
		tracer: obs.NewTracer(256),
		reg:    obs.NewRegistry(),
	}
	r.fleet = NewFleet(FleetConfig{
		Now:   r.eng.Now,
		After: func(d time.Duration, fn func()) { r.eng.After(d, fn) },
	})
	r.fleet.Instrument(r.tracer, r.reg)
	for i := 0; i < n; i++ {
		inner := &switchable{}
		sup := New(inner, Config{
			Now:   r.eng.Now,
			After: func(d time.Duration, fn func()) { r.eng.After(d, fn) },
		})
		sup.Instrument(r.tracer, int32(i), r.reg)
		r.fleet.Enroll(rigProgram, sup)
		r.sups = append(r.sups, sup)
		r.inners = append(r.inners, inner)
	}
	return r
}

// quarantineSup drives sup to quarantine through real strikes
// (maxStrikes panicking executions, or one during probation).
func (r *fleetRig) quarantineSup(i int) {
	r.inners[i].bad = true
	for sup := r.sups[i]; sup.State() != StateQuarantined; {
		sup.Exec(freshEnv())
	}
	r.inners[i].bad = false
}

// TestFleetBlockAtThreshold mutation-checks K, which ships as 3: K-1
// distinct quarantined connections must NOT block, the K-th must, and
// re-quarantines of the same connection must not count as new
// connections.
func TestFleetBlockAtThreshold(t *testing.T) {
	r := newFleetRig(4)

	r.quarantineSup(0)
	r.quarantineSup(1)
	// Same connection again: distinctness, not volume, is what counts.
	r.fleet.noteQuarantine(rigProgram, r.sups[0])
	r.fleet.noteQuarantine(rigProgram, r.sups[1])
	if r.fleet.Blocked(rigProgram) {
		t.Fatal("fleet blocked at K-1 distinct connections")
	}
	if got := r.reg.Counter("guard.fleet_blocks").Value(); got != 0 {
		t.Fatalf("guard.fleet_blocks = %d before threshold, want 0", got)
	}

	r.quarantineSup(2)
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("fleet not blocked at K distinct connections")
	}
	for i, sup := range r.sups {
		if !sup.FleetBlocked() {
			t.Errorf("sup %d not fleet-blocked", i)
		}
		if sup.State() != StateQuarantined {
			t.Errorf("sup %d state = %v, want quarantined", i, sup.State())
		}
	}
	if got := r.reg.Counter("guard.fleet_blocks").Value(); got != 1 {
		t.Errorf("guard.fleet_blocks = %d, want 1", got)
	}
	if bl := events(r.tracer, obs.EvFleetBlock); len(bl) != 1 || bl[0].Site != 3 || bl[0].Aux != 4 {
		t.Errorf("FLEET_BLOCK events %+v, want one with Site (K) 3 and Aux 4 connections", bl)
	}
	if !r.fleet.Blocked(rigProgram) {
		t.Errorf("%s not blocked", rigProgram)
	}
	// The healthy connection (never struck) was dragged down too — the
	// whole point of the fleet tier.
	if !r.sups[3].FleetBlocked() {
		t.Error("healthy sibling connection not fleet-blocked")
	}
}

// TestFleetLiftAfterCleanWindow: the block lifts after the clean
// window; per-connection probation timers that fire during the block
// must NOT resurrect the program early; after the lift every
// supervisor goes on ordinary probation and clean trials restore it.
func TestFleetLiftAfterCleanWindow(t *testing.T) {
	r := newFleetRig(blockThreshold)
	for i := range r.sups {
		r.quarantineSup(i)
	}
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("not blocked at threshold")
	}

	// Per-connection probation (500 ms) fires well before the 10 s
	// clean window: the fleetBlocked guard must hold the line.
	r.eng.RunUntil(8 * time.Second)
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("block evaporated before the clean window elapsed")
	}
	for i, sup := range r.sups {
		if sup.State() != StateQuarantined {
			t.Fatalf("sup %d left quarantine during fleet block (state %v)", i, sup.State())
		}
	}

	r.eng.RunUntil(cleanWindow)
	if r.fleet.Blocked(rigProgram) {
		t.Fatal("block not lifted after the clean window")
	}
	if got := len(events(r.tracer, obs.EvFleetLift)); got != 1 {
		t.Errorf("FLEET_LIFT events = %d, want 1", got)
	}
	for i, sup := range r.sups {
		if sup.FleetBlocked() {
			t.Errorf("sup %d still fleet-blocked after lift", i)
		}
		if sup.State() != StateProbation {
			t.Errorf("sup %d state = %v after lift, want probation", i, sup.State())
		}
	}

	// Clean trial executions re-promote to active. Without a connection
	// the test settles each execution itself, as Conn.schedule does.
	for _, sup := range r.sups {
		for j := 0; j < trialExecs; j++ {
			env := freshEnv()
			sup.Exec(env)
			sup.Applied(env, 0)
		}
	}
	for i, sup := range r.sups {
		if sup.State() != StateActive {
			t.Errorf("sup %d state = %v after clean trial, want active", i, sup.State())
		}
	}
}

// TestFleetReBlockDoublesWindow: a program that misbehaves again right
// after a lift is re-blocked for twice the window.
func TestFleetReBlockDoublesWindow(t *testing.T) {
	r := newFleetRig(blockThreshold)
	for i := range r.sups {
		r.quarantineSup(i)
	}
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("not blocked at K")
	}
	r.eng.RunUntil(10200 * time.Millisecond)
	if r.fleet.Blocked(rigProgram) {
		t.Fatal("first block not lifted after the 10 s window")
	}
	for i, sup := range r.sups {
		if sup.State() != StateProbation {
			t.Fatalf("sup %d state = %v after lift, want probation", i, sup.State())
		}
	}

	// One strike during probation re-quarantines immediately → re-block
	// with the doubled (20 s) window once K connections re-quarantined.
	for i, sup := range r.sups {
		r.inners[i].bad = true
		sup.Exec(freshEnv())
		r.inners[i].bad = false
	}
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("not re-blocked after probation strikes")
	}
	r.eng.RunUntil(25200 * time.Millisecond) // 15 s into the 20 s window
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("re-block lifted before the doubled window elapsed")
	}
	r.eng.RunUntil(30500 * time.Millisecond)
	if r.fleet.Blocked(rigProgram) {
		t.Fatal("re-block not lifted after the doubled window")
	}
	blocks, lifts := r.reg.Counter("guard.fleet_blocks").Value(), r.reg.Counter("guard.fleet_lifts").Value()
	if blocks != 2 || lifts != 2 {
		t.Errorf("guard.fleet_blocks/lifts = %d/%d, want 2/2", blocks, lifts)
	}
}

// TestSwapClearsFleetBlockAndReEnrolls: retargeting a blocked
// supervisor at a different program frees this connection (the block on
// the old program stays for everyone else).
func TestSwapClearsFleetBlockAndReEnrolls(t *testing.T) {
	r := newFleetRig(blockThreshold)
	for i := range r.sups {
		r.quarantineSup(i)
	}
	if !r.fleet.Blocked(rigProgram) {
		t.Fatal("not blocked")
	}

	fresh := &switchable{}
	r.sups[0].Swap(fresh, nil)
	r.fleet.Enroll("good.progmp", r.sups[0])
	if r.sups[0].FleetBlocked() {
		t.Error("swapped supervisor still fleet-blocked")
	}
	if r.sups[0].State() != StateActive {
		t.Errorf("swapped supervisor state = %v, want active", r.sups[0].State())
	}
	if r.sups[0].fleetProgram != "good.progmp" {
		t.Errorf("fleetProgram = %q after re-enroll", r.sups[0].fleetProgram)
	}
	if !r.fleet.Blocked(rigProgram) {
		t.Error("block on the old program evaporated after one connection swapped away")
	}
	if !r.sups[1].FleetBlocked() {
		t.Error("sibling connection lost its block")
	}
}

// TestFleetOperatorBlock: Fleet.Block is the manual escalation hatch.
func TestFleetOperatorBlock(t *testing.T) {
	r := newFleetRig(2)
	if !r.fleet.Block(rigProgram) {
		t.Fatal("operator block refused")
	}
	if r.fleet.Block(rigProgram) {
		t.Error("second operator block reported newly-blocked")
	}
	if !r.fleet.Blocked(rigProgram) || !r.sups[0].FleetBlocked() || !r.sups[1].FleetBlocked() {
		t.Error("operator block did not propagate to enrolled supervisors")
	}
}

// TestProbationRestoreUnderConcurrentHotSwap drives a live transfer
// whose scheduler flaps between panicking and clean while a second
// goroutine hot-swaps the supervised program through the engine inbox —
// the control-plane concurrency shape — and asserts byte-exact delivery
// and a supervisor that ends the run in a coherent state. Run with
// -race this doubles as the probation/restore data-race check.
func TestProbationRestoreUnderConcurrentHotSwap(t *testing.T) {
	eng := netsim.NewEngine(7)
	conn := mptcp.NewConn(eng, mptcp.Config{})
	for _, d := range []time.Duration{2 * time.Millisecond, 8 * time.Millisecond} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: "p", Rate: netsim.ConstantRate(8e6), Delay: d,
		})
		if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: "p", Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	sup := New(&panicky{calm: maxStrikes, inner: sched.MinRTT{}}, Config{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
		Wake:  conn.Kick,
	})
	conn.SetScheduler(sup)
	chk := mptcp.NewConservationChecker(conn)

	// One connection never fleet-blocks, but exercises enrollment.
	fleet := NewFleet(FleetConfig{
		Now:   eng.Now,
		After: func(d time.Duration, fn func()) { eng.After(d, fn) },
	})
	fleet.Enroll("flappy", sup)

	inbox := netsim.NewInbox()
	const total = 256 << 10
	eng.After(0, func() { conn.Send(total, 0) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.RunLiveUntil(30*time.Second, 2000, inbox) // 2000x real time
		inbox.Close()
	}()

	// Concurrent hot-swapper: retarget the supervisor every few
	// milliseconds of wall time, alternating broken and clean programs,
	// exactly as ctl swap does (inside the engine via the inbox, then
	// a Kick, as progmp.Conn.HotSwap does: a swap that lands while the
	// connection waits out a quarantine disarms the probation wake).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			broken := i%2 == 0
			err := inbox.Do(func() {
				var next Scheduler = sched.MinRTT{}
				if broken {
					next = &panicky{calm: maxStrikes, inner: sched.MinRTT{}}
				}
				sup.Swap(next, sup.Inner())
				fleet.Enroll("flappy", sup)
				conn.Kick()
			})
			if err != nil {
				return // engine finished; nothing left to swap
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-done

	if err := chk.Check(total); err != nil {
		t.Fatalf("conservation under concurrent hot-swap: %v", err)
	}
	switch sup.State() {
	case StateActive, StateProbation, StateQuarantined:
		// Any state is legal at cutoff; what matters is it is coherent
		// and the transfer completed byte-exact.
	default:
		t.Fatalf("incoherent supervisor state %v", sup.State())
	}
}
