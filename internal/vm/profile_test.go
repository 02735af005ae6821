package vm

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"progmp/internal/envtest"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

func TestProfileMatchesExec(t *testing.T) {
	// ExecProfile is Exec on a copy with block counters planted: the
	// copy must decide, step and fail exactly as the program does, and
	// the counts must add up to the steps Exec reports.
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 100; trial++ {
		src := envtest.GenProgram(rng)
		info := mustInfo(t, src)
		p, err := Compile(info, Options{SubflowCount: -1, DisableOptimizations: trial%2 == 1})
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		p.StepCounter = new(obs.Counter)
		seed := rng.Int63()
		envA := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
		envB := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
		if err := p.Exec(envA); err != nil {
			t.Fatal(err)
		}
		pr := NewProfile(p)
		if err := pr.ExecProfile(envB); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(envA.Actions, envB.Actions) {
			t.Fatalf("profiled execution diverges on:\n%s", src)
		}
		if *envA.Regs != *envB.Regs {
			t.Fatalf("profiled registers diverge on:\n%s", src)
		}
		if pr.Steps != uint64(p.StepCounter.Value()) || pr.Runs != 1 {
			t.Fatalf("profile counts %d steps in %d run(s), Exec %d in 1", pr.Steps, pr.Runs, p.StepCounter.Value())
		}
		var sum uint64
		for _, h := range pr.Hits {
			sum += h
		}
		if sum != pr.Steps || pr.Hits[0] != 1 {
			t.Fatalf("hits sum to %d, steps %d, entry hit %d time(s)", sum, pr.Steps, pr.Hits[0])
		}
	}

	// What Exec refuses, ExecProfile refuses in the same words.
	p := compileGeneric(t, minRTTSrc)
	var crowd envtest.EnvSpec
	for i := 0; i <= runtime.MaxSubflows; i++ {
		crowd.Subflows = append(crowd.Subflows, envtest.SbfSpec{ID: i})
	}
	env := crowd.Build()
	pr := NewProfile(p)
	want, got := p.Exec(env), pr.ExecProfile(env)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("%d subflows: ExecProfile = %v, Exec = %v", len(crowd.Subflows), got, want)
	}
	if pr.Runs != 0 || pr.Steps != 0 {
		t.Errorf("a refused environment was counted: %d run(s), %d steps", pr.Runs, pr.Steps)
	}
	bad := &Program{Insns: []Instr{{Op: OpMovImm}, {Op: 200}, {Op: OpReturn}}, SpecializedSubflows: -1}
	if err := NewProfile(bad).ExecProfile(envtest.TwoSubflowEnv(1)); err == nil {
		t.Error("ExecProfile ran an invalid opcode")
	}
}

func TestProfileCountsLoopBodies(t *testing.T) {
	p := compileGeneric(t, `FOREACH (VAR sbf IN SUBFLOWS) { SET(R1, R1 + sbf.ID); }`)
	pr := NewProfile(p)
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}},
	}.Build()
	if err := pr.ExecProfile(env); err != nil {
		t.Fatal(err)
	}
	// The StoreReg inside the loop must have executed exactly 4 times.
	var storeHits uint64
	for i, in := range p.Insns {
		if in.Op == OpStoreReg {
			storeHits += pr.Hits[i]
		}
	}
	if storeHits != 4 {
		t.Errorf("loop body StoreReg hits = %d, want 4\n%s", storeHits, pr.Report())
	}
	rep := pr.Report()
	if !strings.Contains(rep, "hottest:") || !strings.Contains(rep, "1 run(s)") {
		t.Errorf("report malformed:\n%s", rep)
	}
}

func TestProfileAccumulatesRuns(t *testing.T) {
	p := compileGeneric(t, `SET(R1, R1 + 1);`)
	pr := NewProfile(p)
	env := envtest.TwoSubflowEnv(0)
	for i := 0; i < 3; i++ {
		env.Reset()
		if err := pr.ExecProfile(env); err != nil {
			t.Fatal(err)
		}
	}
	if pr.Runs != 3 {
		t.Errorf("runs = %d, want 3", pr.Runs)
	}
	if env.Reg(0) != 3 {
		t.Errorf("R1 = %d, want 3", env.Reg(0))
	}
}
