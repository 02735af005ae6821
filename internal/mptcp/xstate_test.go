package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
	"progmp/internal/xstate"
)

// TestChaosSharedStateSchedulers soaks the two shared-state schedulers
// (qaware, jointFlow) through every chaos scenario: without a store
// attached the X-properties read 0 and LINK_QUEUED feeds from the real
// link backlog, so the schedulers must still conserve every byte under
// the full fault mix.
func TestChaosSharedStateSchedulers(t *testing.T) {
	for _, name := range []string{"qaware", "jointFlow"} {
		name := name
		for _, scn := range ChaosScenarioNames() {
			scn := scn
			t.Run(name+"/"+scn, func(t *testing.T) {
				res, err := RunChaos(ChaosScenarios[scn], 7, func() Scheduler {
					return core.MustLoad(name, schedlib.All[name], core.BackendVM)
				})
				if err != nil {
					t.Fatalf("%s under %s: %v (result %+v)", scn, name, err, res)
				}
			})
		}
	}
}

// twoPathConn dials a connection with a fast "lte" path and a slower
// "wifi" path on eng, optionally attached to st, optionally with
// Bernoulli loss on lte.
func twoPathConn(t *testing.T, eng *netsim.Engine, st *xstate.Store, lteLoss float64) *Conn {
	t.Helper()
	conn := NewConn(eng, Config{Store: st})
	var loss netsim.LossModel
	if lteLoss > 0 {
		loss = netsim.BernoulliLoss{P: lteLoss}
	}
	lte := netsim.NewLink(eng, netsim.PathConfig{
		Name: "lte", Rate: netsim.ConstantRate(8e6), Delay: 5 * time.Millisecond, Loss: loss,
	})
	wifi := netsim.NewLink(eng, netsim.PathConfig{
		Name: "wifi", Rate: netsim.ConstantRate(2e6), Delay: 30 * time.Millisecond,
	})
	// Subflow 0 is lte, subflow 1 wifi, in every run.
	for _, sbf := range []SubflowConfig{{Name: "lte", Link: lte}, {Name: "wifi", Link: wifi}} {
		if _, err := conn.AddSubflow(sbf); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// bytesOn returns the bytes a connection sent on the named subflow.
func bytesOn(conn *Conn, name string) int64 {
	for _, s := range conn.Subflows() {
		if s.Name() == name {
			return s.BytesSent
		}
	}
	return -1
}

// TestJointFlowShiftsTrafficOffDegradedPath is the joint-flow
// acceptance experiment: connection 1 transfers over a lossy lte path
// and feeds its observations into the shared store; connection 2 —
// running jointFlow over loss-free links — then starts a fresh
// transfer. With the store attached it inherits the fleet's view and
// keeps its traffic off lte; the identical seeded run without a store
// floods lte (the minRTT choice). Both runs must conserve every byte.
func TestJointFlowShiftsTrafficOffDegradedPath(t *testing.T) {
	run := func(shareWithConn2 bool) (lteBytes, wifiBytes int64) {
		eng := netsim.NewEngine(5)
		st := xstate.NewStore()

		// Connection 1: minRTT prefers the fast lossy lte path, so its
		// loss observations land in the store.
		c1 := twoPathConn(t, eng, st, 0.15)
		c1.SetScheduler(core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM))
		chk1 := NewConservationChecker(c1)
		const c1Bytes = 512 << 10
		eng.After(0, func() { c1.Send(c1Bytes, 0) })
		eng.RunUntil(10 * time.Second)
		if err := chk1.Check(c1Bytes); err != nil {
			t.Fatalf("conn1 conservation: %v", err)
		}
		var lost int64
		for _, d := range st.Load().All() {
			if d.Name == "lte" {
				lost = d.Lost
			}
		}
		if lost < 8 {
			t.Fatalf("conn1 fed only %d lte loss events into the store; threshold experiment needs >= 8", lost)
		}

		// Connection 2: fresh transfer over clean links; only the shared
		// store tells it lte is suspect. The send waits out the subflow
		// establishment handshakes (the wifi SYN takes 2×30 ms) so the
		// experiment measures the steering decision, not the window in
		// which lte is the only usable subflow.
		var st2 *xstate.Store
		if shareWithConn2 {
			st2 = st
		}
		c2 := twoPathConn(t, eng, st2, 0)
		c2.SetScheduler(core.MustLoad("jointFlow", schedlib.All["jointFlow"], core.BackendVM))
		chk2 := NewConservationChecker(c2)
		const c2Bytes = 256 << 10
		eng.After(200*time.Millisecond, func() { c2.Send(c2Bytes, 0) })
		eng.RunUntil(30 * time.Second)
		if err := chk2.Check(c2Bytes); err != nil {
			t.Fatalf("conn2 conservation (store=%v): %v", shareWithConn2, err)
		}
		return bytesOn(c2, "lte"), bytesOn(c2, "wifi")
	}

	lteShared, wifiShared := run(true)
	lteIsolated, _ := run(false)
	if lteIsolated == 0 {
		t.Fatalf("isolated jointFlow sent nothing on lte; experiment not exercising the path choice")
	}
	if wifiShared == 0 {
		t.Fatalf("store-attached jointFlow sent nothing at all on wifi")
	}
	// The shift: with the fleet's view, conn2 must send strictly less —
	// by at least 2x — on the path conn1 observed degrading.
	if lteShared*2 >= lteIsolated {
		t.Errorf("joint-flow shift too weak: lte bytes with store %d, without %d", lteShared, lteIsolated)
	}
}

// busyJointFlow is jointFlow plus a global read and a register write on
// every execution: the analyzer can certify no fact assignment
// quiescent, so every trigger runs an execution that reads the
// X-properties and G1 even with both windows full.
const busyJointFlow = schedlib.JointFlow + "SET(R6, R6 + G1);\n"

// TestScheduleZeroAllocWithStore extends the steady-state zero-alloc
// contract to a store-attached connection: the scheduling pass now
// additionally copies the X-properties and the global register file
// out of the store inside a read section, and must still allocate
// nothing. (Store *writes* ride the ACK/loss paths, not this one.)
// Every measured trigger must execute: R6 accumulates G1 once per
// execution, so it proves the global reached the program.
func TestScheduleZeroAllocWithStore(t *testing.T) {
	eng := netsim.NewEngine(3)
	st := xstate.NewStore()
	conn := NewConn(eng, Config{Store: st})
	for _, name := range []string{"a", "b"} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: name, Rate: netsim.ConstantRate(10e6), Delay: 20 * time.Millisecond,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: name, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	s := core.MustLoad("busyJointFlow", busyJointFlow, core.BackendVM)
	conn.SetScheduler(s)
	eng.RunUntil(10 * time.Millisecond)

	// Park the connection cwnd-exhausted (data queued, acks withheld)
	// with populated shared state, so every Kick is a real execution
	// reading the store.
	const g1 = 42
	st.SetGlobal(0, g1)
	st.RecordRTT(st.DestID("a"), 12000)
	st.RecordLoss(st.DestID("b"), 3)
	conn.Send(1<<20, 0)
	for i := 0; i < 64; i++ { // warm pools, specialization, scratch
		conn.Kick()
	}
	execs0, r60 := conn.SchedulerExecutions, conn.regs[5]
	const runs = 200
	if n := testing.AllocsPerRun(runs, conn.Kick); n != 0 {
		t.Fatalf("store-attached scheduling pass allocates %.1f times per trigger, want 0", n)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	execs := conn.SchedulerExecutions - execs0
	if execs < runs+1 {
		t.Fatalf("%d executions in %d triggers: the measured pass did not execute", execs, runs+1)
	}
	if got, want := conn.regs[5]-r60, g1*int64(execs); got != want {
		t.Fatalf("R6 advanced by %d over %d executions, want %d (G1 = %d each)", got, execs, want, g1)
	}
}

// TestGlobalsFlowAcrossConnections proves the cross-connection register
// channel end to end in the substrate: a scheduler GSET on one
// connection becomes visible to a scheduler G-read on another
// connection attached to the same store.
func TestGlobalsFlowAcrossConnections(t *testing.T) {
	eng := netsim.NewEngine(9)
	st := xstate.NewStore()

	// Writer: publishes its queue depth into G1 on every execution.
	writerSrc := `
IF (G1 == 0) {
    GSET(G1, 7);
}
VAR avail = SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
IF (!Q.EMPTY AND !avail.EMPTY) {
    avail.MIN(sbf => sbf.RTT).PUSH(Q.POP());
}
`
	// Reader: mirrors G1 into its local R1 so the test can observe it.
	readerSrc := `
SET(R1, G1);
VAR avail = SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
IF (!Q.EMPTY AND !avail.EMPTY) {
    avail.MIN(sbf => sbf.RTT).PUSH(Q.POP());
}
`
	c1 := twoPathConn(t, eng, st, 0)
	c1.SetScheduler(core.MustLoad("writer", writerSrc, core.BackendVM))
	c2 := twoPathConn(t, eng, st, 0)
	c2.SetScheduler(core.MustLoad("reader", readerSrc, core.BackendVM))
	eng.After(0, func() { c1.Send(64<<10, 0) })
	eng.After(50*time.Millisecond, func() { c2.Send(64<<10, 0) })
	eng.RunUntil(5 * time.Second)

	if got := st.Load().Globals[0]; got != 7 {
		t.Fatalf("store G1 = %d, want 7 (writer's GSET not published)", got)
	}
	if got := c2.regs[0]; got != 7 {
		t.Fatalf("reader R1 = %d, want 7 (shared global not seeded into conn2's environment)", got)
	}
}
