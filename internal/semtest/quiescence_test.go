package semtest

import (
	"math/rand"
	"testing"

	"progmp/internal/analysis"
	"progmp/internal/compile"
	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

// quiescenceSeeds is FuzzQuiescence's seed corpus: (program, env)
// seed pairs for envtest.GenProgram and envtest.RandomEnv, four
// environments for each of 64 programs.
func quiescenceSeeds() [][2]int64 {
	var seeds [][2]int64
	for seed := int64(0); seed < 64; seed++ {
		for env := int64(0); env < 4; env++ {
			seeds = append(seeds, [2]int64{seed, seed*7919 + env*104729 + 3})
		}
	}
	return seeds
}

// minCertified is how many seed pairs of the corpus must reach a case
// whose certificate holds and is not "always" (a program with no
// effect at all), so the target checks the derivation, not only the
// programs that never act.
const minCertified = 24

// FuzzQuiescence is the proof obligation of the quiescence skip: when
// a generated program's certificate holds on a generated environment's
// facts (runtime.Env.Facts, the function the connection's own facts
// agree with), the interpreter, the closure compiler and the generic
// and specialized VM programs all emit no action and leave R1–R8 and
// G1–G8 bit-identical, with no global marked dirty.
func FuzzQuiescence(f *testing.F) {
	for _, s := range quiescenceSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, progSeed, envSeed int64) {
		checkQuiescence(t, progSeed, envSeed)
	})
}

// TestQuiescenceSeedsCertify keeps FuzzQuiescence from passing
// vacuously: enough of its seed corpus must reach a certified case.
func TestQuiescenceSeedsCertify(t *testing.T) {
	n, always := 0, 0
	for _, s := range quiescenceSeeds() {
		switch checkQuiescence(t, s[0], s[1]) {
		case "always":
			always++
		case "":
		default:
			n++
		}
	}
	t.Logf("%d of %d seed pairs certified (and %d by a certificate that always holds)", n, len(quiescenceSeeds()), always)
	if n < minCertified {
		t.Fatalf("%d of %d seed pairs reach a certified case, want at least %d", n, len(quiescenceSeeds()), minCertified)
	}
}

// checkQuiescence runs program progSeed on environment envSeed when its
// certificate holds there, on every back-end, and fails t if any of
// them acted. It returns the certificate when it held, "" otherwise.
func checkQuiescence(t *testing.T, progSeed, envSeed int64) string {
	t.Helper()
	src := envtest.GenProgram(rand.New(rand.NewSource(progSeed)))
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("generated program does not check: %v\n%s", err, src)
	}
	cert := analysis.Analyze(info, analysis.Options{}).Quiescence
	newEnv := func() *runtime.Env { return envtest.RandomEnv(rand.New(rand.NewSource(envSeed))) }
	env := newEnv()
	facts := env.Facts()
	if !cert.Holds(facts) {
		return ""
	}
	vmExec := func(n int) func(*runtime.Env) {
		p, err := vm.Compile(info, vm.Options{SubflowCount: n})
		if err != nil {
			t.Fatalf("vm.Compile(@%d): %v\n%s", n, err, src)
		}
		return func(env *runtime.Env) {
			if err := p.Exec(env); err != nil {
				t.Fatalf("vm@%d exec: %v\n%s", n, err, src)
			}
		}
	}
	for _, be := range []struct {
		name string
		exec func(*runtime.Env)
	}{
		{"interp", interp.New(info).Exec},
		{"compile", compile.New(info).Exec},
		{"vm", vmExec(-1)},
		{"vm-specialized", vmExec(len(env.SubflowViews))},
	} {
		env := newEnv()
		regs, globals := *env.Regs, *env.Globals
		be.exec(env)
		if len(env.Actions) != 0 || *env.Regs != regs || *env.Globals != globals || env.DirtyGlobals() != 0 {
			t.Fatalf("%s acted on (prog %d, env %d) although %v holds on facts %#x:\n%s\nactions %v\nregs %v → %v\nglobals %v → %v (dirty %#x)",
				be.name, progSeed, envSeed, cert.String(), facts, src, env.Actions,
				regs, *env.Regs, globals, *env.Globals, env.DirtyGlobals())
		}
	}
	return cert.String()
}
