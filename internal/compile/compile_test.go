package compile

import (
	"math/rand"
	"reflect"
	"testing"

	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

func mustInfo(t *testing.T, src string) *types.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return info
}

func TestCompiledMinRTT(t *testing.T) {
	env := envtest.TwoSubflowEnv(2)
	New(mustInfo(t, `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
		SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
	}`)).Exec(env)
	if n := envtest.PushCount(env); n != 1 {
		t.Fatalf("push count = %d, want 1", n)
	}
	if env.Actions[1].Subflow != env.SubflowViews[0].Handle {
		t.Errorf("pushed on wrong subflow")
	}
}

func TestCompiledFusedFilterMin(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10, Lossy: true},
			{ID: 1, RTT: 20},
			{ID: 2, RTT: 30},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	New(mustInfo(t, `SUBFLOWS.FILTER(s => !s.LOSSY).MIN(s => s.RTT).PUSH(Q.POP());`)).Exec(env)
	push := env.Actions[1]
	if push.Subflow != env.SubflowViews[1].Handle {
		t.Errorf("fused FILTER.MIN picked subflow %d, want the non-lossy RTT-20 one", push.Subflow)
	}
}

func TestCompiledQueueVarAndPop(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{{ID: 0}},
		Q: []envtest.PktSpec{
			{Seq: 0, Size: 50}, {Seq: 1, Size: 2000}, {Seq: 2, Size: 60},
		},
	}.Build()
	New(mustInfo(t, `VAR small = Q.FILTER(p => p.SIZE < 100);
SET(R1, small.COUNT);
SUBFLOWS.GET(0).PUSH(small.POP());
SET(R2, small.COUNT);
SET(R3, small.TOP.SEQ);`)).Exec(env)
	if env.Reg(0) != 2 {
		t.Errorf("R1 = %d, want 2", env.Reg(0))
	}
	if env.Reg(1) != 1 {
		t.Errorf("R2 = %d, want 1 (POP through filtered view must hide the packet)", env.Reg(1))
	}
	if env.Reg(2) != 2 {
		t.Errorf("R3 = %d, want seq 2", env.Reg(2))
	}

	// A filter chained onto a queue variable resolves through the
	// variable's definition at compile time; the interpreter, which
	// carries the variable as a run-time value, must agree.
	info := mustInfo(t, `VAR q = Q.FILTER(p => p.SIZE > R4);
SET(R4, 55);
SET(R1, q.FILTER(p => p.SEQ >= 1).TOP.SEQ);
SET(R2, q.COUNT);
SUBFLOWS.GET(0).PUSH(q.FILTER(p => p.SIZE < 100).POP());
SET(R3, q.FILTER(p => p.SEQ >= 0).COUNT);`)
	for seed := int64(0); seed < 50; seed++ {
		envA, envB := diffEnvPair(seed)
		interp.New(info).Exec(envA)
		New(info).Exec(envB)
		if !reflect.DeepEqual(envA.Actions, envB.Actions) || *envA.Regs != *envB.Regs {
			t.Fatalf("seed %d: interp %v %v, compiled %v %v", seed, envA.Actions, *envA.Regs, envB.Actions, *envB.Regs)
		}
	}
}

// diffEnvPair builds two identical environments from the same seed so
// both back-ends see the same snapshot with independent action state.
func diffEnvPair(seed int64) (*runtime.Env, *runtime.Env) {
	return envtest.RandomEnv(rand.New(rand.NewSource(seed))),
		envtest.RandomEnv(rand.New(rand.NewSource(seed)))
}

// TestDifferentialInterpVsCompiled drives random well-typed programs
// through the interpreter and the compiled back-end and requires
// identical observable behaviour: the action queue and final registers.
func TestDifferentialInterpVsCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		src := envtest.GenProgram(rng)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("generated program does not check: %v\n%s", err, src)
		}
		envSeed := rng.Int63()
		envA, envB := diffEnvPair(envSeed)
		interp.New(info).Exec(envA)
		New(info).Exec(envB)
		if !reflect.DeepEqual(envA.Actions, envB.Actions) {
			t.Fatalf("action divergence on program:\n%s\ninterp:   %v\ncompiled: %v", src, envA.Actions, envB.Actions)
		}
		if *envA.Regs != *envB.Regs {
			t.Fatalf("register divergence on program:\n%s\ninterp:   %v\ncompiled: %v", src, *envA.Regs, *envB.Regs)
		}
	}
}

func TestDifferentialPaperSchedulers(t *testing.T) {
	schedulers := map[string]string{
		"minRTT": `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
			SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.QUEUED + sbf.SKBS_IN_FLIGHT).MIN(sbf => sbf.RTT).PUSH(Q.POP());
		}`,
		"roundRobin": `VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);
		IF (R1 >= sbfs.COUNT) { SET(R1, 0); }
		IF (!Q.EMPTY) {
			VAR sbf = sbfs.GET(R1);
			IF (sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED) { sbf.PUSH(Q.POP()); }
			SET(R1, R1 + 1);
		}`,
		"redundant": `IF (!Q.EMPTY) {
			VAR skb = Q.POP();
			FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }
		}`,
		"opportunisticRedundant": `VAR sbfCandidates = SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
		FOREACH (VAR sbf IN sbfCandidates) {
			VAR skb = QU.FILTER(s => !s.SENT_ON(sbf)).TOP;
			IF (skb != NULL) { sbf.PUSH(skb); } ELSE { sbf.PUSH(Q.POP()); }
		}`,
	}
	for name, src := range schedulers {
		t.Run(name, func(t *testing.T) {
			info := mustInfo(t, src)
			for seed := int64(0); seed < 50; seed++ {
				envA, envB := diffEnvPair(seed)
				interp.New(info).Exec(envA)
				New(info).Exec(envB)
				if !reflect.DeepEqual(envA.Actions, envB.Actions) {
					t.Fatalf("seed %d: actions diverge\ninterp:   %v\ncompiled: %v", seed, envA.Actions, envB.Actions)
				}
				if *envA.Regs != *envB.Regs {
					t.Fatalf("seed %d: registers diverge", seed)
				}
			}
		})
	}
}
