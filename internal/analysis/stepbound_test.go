package analysis

import (
	"math/rand"
	"testing"

	"progmp/internal/envtest"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

// stepBoundSeeds is FuzzStepBound's seed corpus: (program, env) seed
// pairs for envtest.GenProgram and envtest.RandomEnv, four environments
// for each of 64 programs.
func stepBoundSeeds() [][2]int64 {
	var seeds [][2]int64
	for seed := int64(0); seed < 64; seed++ {
		for env := int64(0); env < 4; env++ {
			seeds = append(seeds, [2]int64{seed, seed*7919 + env*104729 + 3})
		}
	}
	return seeds
}

// FuzzStepBound is the soundness obligation of the step bound: on a
// generated program and environment, neither the generic nor the
// specialized VM program executes more steps (vm.Program.StepCounter)
// than the bound evaluated at the environment's size, S subflows and N
// packets in its deepest queue.
func FuzzStepBound(f *testing.F) {
	for _, s := range stepBoundSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, progSeed, envSeed int64) {
		src := envtest.GenProgram(rand.New(rand.NewSource(progSeed)))
		newEnv := func() *runtime.Env { return envtest.RandomEnv(rand.New(rand.NewSource(envSeed))) }
		checkStepBound(t, src, newEnv)
	})
}

// TestStepBoundCorpus holds every corpus program and a set of single
// constructs to the bound on environments up to the reference depth's
// scale.
func TestStepBoundCorpus(t *testing.T) {
	srcs := []string{
		"SET(R1, Q.COUNT);",
		"SET(R1, Q.BYTES);",
		"SET(R1, SUBFLOWS.COUNT);",
		"FOREACH (VAR s IN SUBFLOWS) { SET(R1, s.RTT); }",
		"SET(R1, Q.FILTER(p => QU.COUNT > 3).COUNT);",
		"SET(R1, Q.FILTER(p => p.SIZE > 3).FILTER(p => p.SEQ > R2).MIN(p => p.SEQ).SEQ);",
		"FOREACH (VAR s IN SUBFLOWS.FILTER(s => !s.LOSSY)) { FOREACH (VAR t IN SUBFLOWS) { t.PUSH(Q.FILTER(p => !p.SENT_ON(s)).TOP); } }",
		"SET(R1, SUBFLOWS.MIN(s => SUBFLOWS.FILTER(t => t.RTT < s.RTT).COUNT).RTT);",
		"SET(R1, SUBFLOWS.GET(R2).RTT + SUBFLOWS.MAX(s => s.CWND).ID);",
	}
	for _, name := range []string{"compensating", "minRTT", "redundant", "roundRobin", "opportunisticRedundant", "jointFlow", "handoverAware", "selectiveCompensation"} {
		srcs = append(srcs, schedlib.All[name])
	}
	for _, src := range srcs {
		for _, size := range [][2]int{{0, 0}, {1, 1}, {2, 7}, {4, 16}, {8, 3}, {9, 40}} {
			newEnv := func() *runtime.Env { return sizedEnv(size[0], size[1]) }
			checkStepBound(t, src, newEnv)
		}
	}
}

// sizedEnv is an environment of s subflows and n packets in each queue,
// half of them already sent on every subflow.
func sizedEnv(s, n int) *runtime.Env {
	spec := envtest.EnvSpec{}
	var all []int
	for i := 0; i < s; i++ {
		spec.Subflows = append(spec.Subflows, envtest.SbfSpec{ID: i, RTT: int64(1000 * (s - i)), Cwnd: 10, InFlight: int64(i)})
		all = append(all, i)
	}
	fill := func() []envtest.PktSpec {
		var out []envtest.PktSpec
		for i := 0; i < n; i++ {
			p := envtest.PktSpec{Seq: int64(i), Size: 100 + int64(i)}
			if i%2 == 0 {
				p.SentOn = all
			}
			out = append(out, p)
		}
		return out
	}
	spec.Q, spec.QU, spec.RQ = fill(), fill(), fill()
	return spec.Build()
}

// checkStepBound runs src's generic and specialized VM programs on
// fresh copies of one environment and fails t when either executes
// more steps than the bound at that environment's size.
func checkStepBound(t *testing.T, src string, newEnv func() *runtime.Env) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("program does not parse: %v\n%s", err, src)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("program does not check: %v\n%s", err, src)
	}
	_, facts := AnalyzeProgram(info, Options{})
	env := newEnv()
	S := int64(len(env.SubflowViews))
	var N int64
	for _, q := range []runtime.QueueID{runtime.QueueSend, runtime.QueueUnacked, runtime.QueueReinject} {
		N = max(N, int64(env.Queue(q).Len()))
	}
	bound := facts.bound.eval(S, N)
	for _, n := range []int{-1, int(S)} {
		p, err := vm.Compile(info, vm.Options{SubflowCount: n})
		if err != nil {
			t.Fatalf("vm.Compile(@%d): %v\n%s", n, err, src)
		}
		p.StepCounter = new(obs.Counter)
		if err := p.Exec(newEnv()); err != nil {
			t.Fatalf("vm@%d exec: %v\n%s", n, err, src)
		}
		if steps := p.StepCounter.Value(); steps > bound {
			t.Errorf("vm@%d ran %d steps at S=%d, N=%d, above the bound %s = %d\n%s", n, steps, S, N, facts.bound, bound, src)
		}
	}
}
