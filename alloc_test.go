// Allocation regression guards for the Fig. 9 hot path: every
// scheduler back-end must execute with zero allocations in steady
// state (the arena owns all snapshot memory; executions only recycle
// it). CI runs these by name and, independently, the layered
// benchmark's 0-alloc oracle (bench/), so two proofs pin the contract.
package progmp

import (
	"testing"

	"progmp/internal/core"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

func checkSource(src string) (*types.Info, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return types.Check(prog)
}

func TestExecZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold on production builds")
	}
	backends := []struct {
		name  string
		build func(t *testing.T) interface{ Exec(*runtime.Env) }
	}{
		{"interpreter", func(t *testing.T) interface{ Exec(*runtime.Env) } {
			info, err := checkSource(schedlib.MinRTT)
			if err != nil {
				t.Fatal(err)
			}
			return interp.New(info)
		}},
		{"compiled", func(t *testing.T) interface{ Exec(*runtime.Env) } {
			return core.MustLoad("minRTT", schedlib.MinRTT, core.BackendCompiled)
		}},
		// A filter chain that passes through a queue-typed variable.
		{"compiled-queue-variable", func(t *testing.T) interface{ Exec(*runtime.Env) } {
			return core.MustLoad("queueVar", queueVarSrc, core.BackendCompiled)
		}},
		{"vm", func(t *testing.T) interface{ Exec(*runtime.Env) } {
			return core.MustLoad("minRTT", schedlib.MinRTT, core.BackendVM)
		}},
		{"vm-raw", func(t *testing.T) interface{ Exec(*runtime.Env) } {
			info, err := checkSource(schedlib.MinRTT)
			if err != nil {
				t.Fatal(err)
			}
			p, err := vm.Compile(info, vm.Options{SubflowCount: 2})
			if err != nil {
				t.Fatal(err)
			}
			return execAdapter{p}
		}},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			s := be.build(t)
			env := fig9Env(2)
			for i := 0; i < 64; i++ { // warm caches, pools, specialization
				env.Reset()
				s.Exec(env)
			}
			n := testing.AllocsPerRun(500, func() {
				env.Reset()
				s.Exec(env)
			})
			if n != 0 {
				t.Errorf("%s: %.1f allocs per execution, want 0", be.name, n)
			}
		})
	}
}

const queueVarSrc = `VAR q = Q.FILTER(p => p.SIZE > 0);
IF (!SUBFLOWS.EMPTY) { SUBFLOWS.GET(0).PUSH(q.FILTER(p => p.SEQ >= 0).TOP); }`

// execAdapter gives the raw bytecode program the error-free Exec
// signature the table expects.
type execAdapter struct{ p *vm.Program }

func (a execAdapter) Exec(env *runtime.Env) { _ = a.p.Exec(env) }
