package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

// TestHotSwapMidTransferConserves swaps minRTT → redundant while a
// transfer is in flight and asserts the conservation invariant: every
// byte delivered exactly once, in order, fully acknowledged — plus a
// SCHED_SWAP trace event marking the swap.
func TestHotSwapMidTransferConserves(t *testing.T) {
	eng, conn := buildConn(t, 7, Config{}, "minRTT",
		testNet{rate: 2e6, delay: 10 * time.Millisecond},
		testNet{rate: 4e6, delay: 30 * time.Millisecond, loss: 0.01},
	)
	tracer := obs.NewTracer(1 << 14)
	reg := obs.NewRegistry()
	conn.Instrument(tracer, reg)
	k := NewConservationChecker(conn)

	const total = 2 << 20
	eng.At(0, func() { conn.Send(total, 0) })
	swapped := false
	eng.At(400*time.Millisecond, func() {
		if conn.AllAcked() {
			t.Fatal("transfer already finished before the swap; grow it")
		}
		conn.SetScheduler(core.MustLoad("redundant", schedlib.All["redundant"], core.BackendCompiled))
		swapped = true
	})
	eng.RunUntil(60 * time.Second)

	if !swapped {
		t.Fatal("swap callback never ran")
	}
	if err := k.Check(total); err != nil {
		t.Fatalf("conservation after mid-transfer swap: %v", err)
	}
	var swaps int
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.EvSchedSwap {
			swaps++
			if ev.At != 400*time.Millisecond {
				t.Errorf("SCHED_SWAP at %v, want 400ms", ev.At)
			}
		}
	}
	if swaps != 1 {
		t.Fatalf("recorded %d SCHED_SWAP events, want 1", swaps)
	}
}

// swapOnExec runs inner and, on its swapAt-th execution, asks the
// connection to install next from within the execution — exercising
// the deferred-to-execution-boundary path.
type swapOnExec struct {
	conn   *Conn
	inner  Scheduler
	next   Scheduler
	swapAt int
	execs  int
}

func (s *swapOnExec) Exec(env *runtime.Env) {
	s.execs++
	if s.execs == s.swapAt {
		s.conn.SetScheduler(s.next)
	}
	s.inner.Exec(env)
}

// TestSwapInsideExecutionDefersToBoundary installs a scheduler that
// replaces itself mid-pass; the swap must land between executions (no
// torn state) and the transfer must still complete.
func TestSwapInsideExecutionDefersToBoundary(t *testing.T) {
	eng := netsim.NewEngine(3)
	conn := NewConn(eng, Config{})
	for _, d := range []time.Duration{10 * time.Millisecond, 25 * time.Millisecond} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name: "p", Rate: netsim.ConstantRate(2e6), Delay: d,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: "sbf", Link: link}); err != nil {
			t.Fatalf("AddSubflow: %v", err)
		}
	}
	tracer := obs.NewTracer(1 << 14)
	conn.Instrument(tracer, nil)

	sw := &swapOnExec{
		conn:   conn,
		inner:  core.MustLoad("roundRobin", schedlib.All["roundRobin"], core.BackendCompiled),
		next:   core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendCompiled),
		swapAt: 3,
	}
	conn.SetScheduler(sw)
	k := NewConservationChecker(conn)

	const total = 512 << 10
	eng.At(0, func() { conn.Send(total, 0) })
	eng.RunUntil(30 * time.Second)

	if sw.execs < sw.swapAt {
		t.Fatalf("swapper executed %d times, never reached the swap", sw.execs)
	}
	if err := k.Check(total); err != nil {
		t.Fatalf("conservation after in-execution swap: %v", err)
	}
	deferred := false
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.EvSchedSwap && ev.Aux == 1 {
			deferred = true
		}
	}
	if !deferred {
		t.Fatal("no deferred SCHED_SWAP (aux=1) event recorded")
	}
}

// TestSetRegisterOutOfRange asserts the error return and the
// api.register_oob counter.
func TestSetRegisterOutOfRange(t *testing.T) {
	_, conn := buildConn(t, 1, Config{}, "minRTT", testNet{rate: 1e6, delay: 5 * time.Millisecond})
	reg := obs.NewRegistry()
	conn.Instrument(nil, reg)

	if err := conn.SetRegister(0, 42); err != nil {
		t.Fatalf("in-range SetRegister: %v", err)
	}
	if got, err := conn.Register(0); err != nil || got != 42 {
		t.Fatalf("Register(0) = %d, %v; want 42", got, err)
	}
	for _, i := range []int{-1, 8, 99} {
		if err := conn.SetRegister(i, 1); err == nil {
			t.Fatalf("SetRegister(%d) succeeded, want out-of-range error", i)
		}
	}
	if got := reg.Counter("api.register_oob").Value(); got != 3 {
		t.Fatalf("api.register_oob = %d, want 3", got)
	}
}

// TestRegisterOutOfRange: reading R99 is refused with SetRegister's
// error and counted, not answered with a silent 0.
func TestRegisterOutOfRange(t *testing.T) {
	_, conn := buildConn(t, 1, Config{}, "minRTT", testNet{rate: 1e6, delay: 5 * time.Millisecond})
	reg := obs.NewRegistry()
	conn.Instrument(nil, reg)
	v, rerr := conn.Register(99)
	werr := conn.SetRegister(99, 1)
	if rerr == nil || werr == nil || rerr.Error() != werr.Error() {
		t.Fatalf("Register(99) = %d, %v; SetRegister(99) error %v; want the same refusal", v, rerr, werr)
	}
	if got := reg.Counter("api.register_oob").Value(); got != 2 {
		t.Fatalf("api.register_oob = %d, want 2 (one read, one write)", got)
	}
}
