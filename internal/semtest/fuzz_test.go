package semtest

import (
	"math/rand"
	"slices"
	"testing"

	"progmp/internal/compile"
	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// FuzzBackendsAgree is the agreement net under every change to how a
// back-end lowers the language: a generated well-typed program
// (envtest.GenProgram, which emits queue variables, chains through two
// variables and variables scanned twice) against a generated
// environment must produce the same actions, registers and globals on
// the interpreter, the closure compiler, the generic VM program and the
// VM program specialized for the environment's subflow count — and a
// second execution must not allocate.
func FuzzBackendsAgree(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, seed*7919+1)
	}
	f.Fuzz(func(t *testing.T, progSeed, envSeed int64) {
		src := envtest.GenProgram(rand.New(rand.NewSource(progSeed)))
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("generated program does not check: %v\n%s", err, src)
		}
		newEnv := func() *runtime.Env { return envtest.RandomEnv(rand.New(rand.NewSource(envSeed))) }
		nSbf := len(newEnv().SubflowViews)
		type backend struct {
			name string
			exec func(*runtime.Env)
			// mayAlloc exempts a VM program with more spill slots than
			// Exec's stack buffer holds (vm.spillStackSlots = 16, "real
			// programs spill less"): ~4 % of generated generic programs.
			mayAlloc bool
		}
		vmBackend := func(name string, n int) backend {
			p, err := vm.Compile(info, vm.Options{SubflowCount: n})
			if err != nil {
				t.Fatalf("vm.Compile(@%d): %v\n%s", n, err, src)
			}
			return backend{name, func(env *runtime.Env) {
				if err := p.Exec(env); err != nil {
					t.Fatalf("%s exec: %v\n%s", name, err, src)
				}
			}, p.SpillSlots > 16}
		}
		backends := []backend{
			{name: "interp", exec: interp.New(info).Exec},
			{name: "compile", exec: compile.New(info).Exec},
			vmBackend("vm", -1),
			vmBackend("vm-specialized", nSbf),
		}
		var ref *runtime.Env
		for _, be := range backends {
			env := newEnv()
			be.exec(env)
			if ref == nil {
				ref = env
			} else if !slices.Equal(ref.Actions, env.Actions) || *ref.Regs != *env.Regs ||
				*ref.Globals != *env.Globals || ref.DirtyGlobals() != env.DirtyGlobals() {
				t.Fatalf("%s diverges from interp on (prog %d, env %d):\n%s\nactions %v vs %v\nregs %v vs %v\nglobals %v vs %v",
					be.name, progSeed, envSeed, src,
					env.Actions, ref.Actions,
					*env.Regs, *ref.Regs, *env.Globals, *ref.Globals)
			}
			if raceEnabled || be.mayAlloc {
				continue
			}
			// The same execution again, on its own environment: AllocsPerRun's
			// warm-up run fills the frame pool and the Actions capacity. A
			// collection between the two runs empties the pool, so only a
			// count that repeats is the back-end's own.
			again := newEnv()
			regs, globals := *again.Regs, *again.Globals
			allocs := 1.0
			for try := 0; try < 3 && allocs != 0; try++ {
				allocs = testing.AllocsPerRun(1, func() {
					again.Reset()
					*again.Regs, *again.Globals = regs, globals
					be.exec(again)
				})
			}
			if allocs != 0 {
				t.Fatalf("%s: %v allocs on a repeated execution of (prog %d, env %d):\n%s", be.name, allocs, progSeed, envSeed, src)
			}
		}
	})
}
