package sched

import (
	"math/rand"
	"testing"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

// TestNativeMatchesDSL drives the native reference schedulers and
// their schedlib specifications through random environments and
// requires identical actions and registers — the "semantically
// equivalent" relation the paper's Fig. 9 comparison rests on.
func TestNativeMatchesDSL(t *testing.T) {
	pairs := []struct {
		name   string
		native interface{ Exec(*runtime.Env) }
		spec   string
	}{
		{"minRTT", MinRTT{}, schedlib.MinRTT},
		{"roundRobin", RoundRobin{}, schedlib.RoundRobin},
		{"redundant", Redundant{}, schedlib.Redundant},
	}
	for _, backend := range []core.Backend{core.BackendInterpreter, core.BackendCompiled, core.BackendVM} {
		for _, pair := range pairs {
			t.Run(pair.name+"/"+backend.String(), func(t *testing.T) {
				dsl := core.MustLoad(pair.name, pair.spec, backend)
				for seed := int64(0); seed < 300; seed++ {
					envN := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
					envD := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
					pair.native.Exec(envN)
					dsl.Exec(envD)
					if !envtest.SameActions(envN.Actions, envD.Actions) {
						t.Fatalf("seed %d: native and DSL diverge\nnative: %v\ndsl:    %v",
							seed, envN.Actions, envD.Actions)
					}
					if *envN.Regs != *envD.Regs {
						t.Fatalf("seed %d: register divergence\nnative: %v\ndsl:    %v",
							seed, *envN.Regs, *envD.Regs)
					}
				}
			})
		}
	}
}

func TestNativeMinRTTPicksFastAvailable(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 2, InFlight: 2}, // exhausted
			{ID: 1, RTT: 30000, Cwnd: 10},
			{ID: 2, RTT: 20000, Cwnd: 10, TSQ: true}, // throttled
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	MinRTT{}.Exec(env)
	if envtest.PushCount(env) != 1 {
		t.Fatalf("pushes = %d, want 1", envtest.PushCount(env))
	}
	if env.Actions[1].Subflow != env.SubflowViews[1].Handle {
		t.Errorf("picked wrong subflow")
	}
}

func TestNativeMinRTTServicesReinjectFirst(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10},
			{ID: 1, RTT: 30000, Cwnd: 10},
		},
		Q:  []envtest.PktSpec{{Seq: 5}},
		RQ: []envtest.PktSpec{{Seq: 2, SentOn: []int{0}}},
	}.Build()
	MinRTT{}.Exec(env)
	// First push must be the reinjection of seq 2 on subflow 1 (the
	// packet was lost on subflow 0).
	var pushes []runtime.Action
	for _, a := range env.Actions {
		if a.Kind == runtime.ActionPush {
			pushes = append(pushes, a)
		}
	}
	if len(pushes) != 2 {
		t.Fatalf("pushes = %d, want reinject + fresh", len(pushes))
	}
	if pushes[0].Packet != runtime.PacketHandle(10002) || pushes[0].Subflow != env.SubflowViews[1].Handle {
		t.Errorf("reinjection wrong: %+v", pushes[0])
	}
}

func TestNativeRoundRobinCycles(t *testing.T) {
	var regs [runtime.NumRegisters]int64
	var targets []runtime.SubflowHandle
	for i := 0; i < 4; i++ {
		env := envtest.TwoSubflowEnv(1)
		*env.Regs = regs
		RoundRobin{}.Exec(env)
		regs = *env.Regs
		for _, a := range env.Actions {
			if a.Kind == runtime.ActionPush {
				targets = append(targets, a.Subflow)
			}
		}
	}
	if len(targets) != 4 {
		t.Fatalf("pushes = %d, want 4", len(targets))
	}
	if targets[0] == targets[1] || targets[0] != targets[2] || targets[1] != targets[3] {
		t.Errorf("round robin did not cycle: %v", targets)
	}
}

// TestNativeSchedulersZeroAlloc pins the //progmp:hotpath contract on
// the native reference schedulers: a steady-state execution allocates
// nothing. Regression: RoundRobin used to collect eligible subflows
// into a fresh slice per decision.
func TestNativeSchedulersZeroAlloc(t *testing.T) {
	scheds := []struct {
		name string
		s    interface{ Exec(*runtime.Env) }
	}{
		{"minRTT", MinRTT{}},
		{"roundRobin", RoundRobin{}},
		{"redundant", Redundant{}},
	}
	for _, tc := range scheds {
		t.Run(tc.name, func(t *testing.T) {
			env := envtest.EnvSpec{
				Subflows: []envtest.SbfSpec{
					{ID: 0, RTT: 10000, Cwnd: 8},
					{ID: 1, RTT: 30000, Cwnd: 8},
					{ID: 2, RTT: 20000, Cwnd: 8, TSQ: true},
				},
				Q:  []envtest.PktSpec{{Seq: 0}, {Seq: 1}},
				RQ: []envtest.PktSpec{{Seq: 2}},
			}.Build()
			tc.s.Exec(env) // warm-up sizes the action queue
			allocs := testing.AllocsPerRun(200, func() {
				env.Reset()
				tc.s.Exec(env)
			})
			if allocs != 0 {
				t.Fatalf("%s: %.1f allocs per execution, want 0", tc.name, allocs)
			}
		})
	}
}

// RoundRobin is the native cyclic scheduler (semantically equivalent
// to schedlib.RoundRobin; the rotating index lives in R8).
type RoundRobin struct{}

// Exec runs one scheduling decision.
//
//progmp:hotpath
//progmp:deterministic
func (RoundRobin) Exec(env *runtime.Env) {
	// Select the k-th eligible subflow by scanning twice instead of
	// collecting eligibles into a slice: a per-execution []*SubflowView
	// here allocated on every decision (caught by progmp-analyze).
	var n int64
	for _, s := range env.SubflowViews {
		if !s.Bools[runtime.SbfTSQThrottled] && !s.Bools[runtime.SbfLossy] {
			n++
		}
	}
	const reg = 7 // R8
	if env.Reg(reg) >= n {
		env.SetReg(reg, 0)
	}
	if env.SendQ.Empty() {
		return
	}
	idx := env.Reg(reg)
	if n > 0 {
		want := ((idx % n) + n) % n
		var seen int64
		for _, s := range env.SubflowViews {
			if s.Bools[runtime.SbfTSQThrottled] || s.Bools[runtime.SbfLossy] {
				continue
			}
			if seen == want {
				if s.Ints[runtime.SbfCwnd] > s.Ints[runtime.SbfSkbsInFlight]+s.Ints[runtime.SbfQueued] {
					pkt := env.SendQ.Top()
					env.Pop(runtime.QueueSend, pkt)
					env.Push(s, pkt)
				}
				break
			}
			seen++
		}
	}
	env.SetReg(reg, idx+1)
}

// Redundant is the native full-redundancy scheduler (semantically
// equivalent to schedlib.Redundant).
type Redundant struct{}

// Exec runs one scheduling decision.
//
//progmp:hotpath
//progmp:deterministic
func (Redundant) Exec(env *runtime.Env) {
	for _, sbf := range env.SubflowViews {
		// The redundant scheduler gates on the congestion window only
		// (§5.1); TSQ is a default-scheduler refinement (footnote 2).
		if sbf.Bools[runtime.SbfLossy] || sbf.Ints[runtime.SbfCwnd] <= sbf.Ints[runtime.SbfSkbsInFlight]+sbf.Ints[runtime.SbfQueued] {
			continue
		}
		var unsent *runtime.PacketView
		env.UnackedQ.All(-1, func(p *runtime.PacketView) bool {
			if !p.SentOn(sbf) {
				unsent = p
				return false
			}
			return true
		})
		if unsent != nil {
			env.Push(sbf, unsent)
			continue
		}
		fresh := env.SendQ.Top()
		if fresh != nil {
			env.Pop(runtime.QueueSend, fresh)
			env.Push(sbf, fresh)
		}
	}
}
