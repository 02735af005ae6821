// Wall-time benchmarks of the paper's evaluation: per-decision
// execution cost across back-ends (Fig. 9 top), in-stack execution
// against an up-call (§4.1) and the VM's compile-time design choices.
// The virtual-time figures are pinned by cmd/progmp-experiments'
// TestEvaluationGolden instead (DESIGN.md §3 indexes both).
package progmp

import (
	"testing"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/experiments"
	"progmp/internal/interp"
	"progmp/internal/lang/types"
	"progmp/internal/mptcp/sched"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

// ---- Fig. 9 (top): per-decision execution time across back-ends ----

// fig9Env builds the measurement environment of the overhead
// comparison: a populated send queue and available subflows so the
// default scheduler performs real selection work.
func fig9Env(subflows int) *runtime.Env {
	spec := envtest.EnvSpec{}
	for i := 0; i < subflows; i++ {
		spec.Subflows = append(spec.Subflows, envtest.SbfSpec{
			ID: i, RTT: int64(10000 + i*7000), RTTVar: 500, Cwnd: 64, InFlight: int64(i % 3),
		})
	}
	for i := 0; i < 4; i++ {
		spec.Q = append(spec.Q, envtest.PktSpec{Seq: int64(i)})
	}
	for i := 4; i < 6; i++ {
		spec.QU = append(spec.QU, envtest.PktSpec{Seq: int64(i), SentOn: []int{0}})
	}
	return spec.Build()
}

func benchExec(b *testing.B, s interface{ Exec(*runtime.Env) }, subflows int) {
	env := fig9Env(subflows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Reset()
		s.Exec(env)
	}
}

func BenchmarkFig09_ExecutionOverhead(b *testing.B) {
	for _, subflows := range []int{2, 4} {
		sbf := subflows
		b.Run("native/"+itoa(sbf), func(b *testing.B) {
			benchExec(b, sched.MinRTT{}, sbf)
		})
		b.Run("interpreter/"+itoa(sbf), func(b *testing.B) {
			info := mustCheck(b, schedlib.MinRTT)
			benchExec(b, interp.New(info), sbf)
		})
		b.Run("compiled/"+itoa(sbf), func(b *testing.B) {
			benchExec(b, core.MustLoad("minRTT", schedlib.MinRTT, core.BackendCompiled), sbf)
		})
		b.Run("vm/"+itoa(sbf), func(b *testing.B) {
			benchExec(b, core.MustLoad("minRTT", schedlib.MinRTT, core.BackendVM), sbf)
		})
		b.Run("vm-raw/"+itoa(sbf), func(b *testing.B) {
			// The bare bytecode program without the core wrapper's
			// stats and cache lookups: the closest analogue of the
			// JIT-compiled code path.
			info := mustCheck(b, schedlib.MinRTT)
			p, err := vm.Compile(info, vm.Options{SubflowCount: sbf})
			if err != nil {
				b.Fatal(err)
			}
			env := fig9Env(sbf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				if err := p.Exec(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustCheck(b *testing.B, src string) *types.Info {
	b.Helper()
	info, err := checkSource(src)
	if err != nil {
		b.Fatal(err)
	}
	return info
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return "big"
}

// ---- §4.1: up-call vs in-stack execution ----

func BenchmarkSec41_UpcallVsInStack(b *testing.B) {
	res, err := experiments.UpcallOverhead(b.N + 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.DirectNsPerOp, "direct-ns/op")
	b.ReportMetric(res.UpcallNsPerOp, "upcall-ns/op")
	b.ReportMetric(res.Factor, "factor")
}

// ---- Ablation benchmarks for DESIGN.md's called-out design choices ----

// BenchmarkAblation_VMSpecialization quantifies the constant-subflow-
// count specialization (§4.1): generic vs specialized bytecode for the
// same program and environment.
func BenchmarkAblation_VMSpecialization(b *testing.B) {
	info := mustCheck(b, schedlib.MinRTT)
	for _, variant := range []struct {
		name string
		opts vm.Options
	}{
		{"generic", vm.Options{SubflowCount: -1}},
		{"specialized", vm.Options{SubflowCount: 2}},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			p, err := vm.Compile(info, variant.opts)
			if err != nil {
				b.Fatal(err)
			}
			env := fig9Env(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				if err := p.Exec(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_VMOptimizer measures the IR passes (jump
// threading + dead-code elimination): program size and execution time
// with and without them.
func BenchmarkAblation_VMOptimizer(b *testing.B) {
	info := mustCheck(b, schedlib.HTTP2Aware)
	for _, variant := range []struct {
		name    string
		disable bool
	}{
		{"optimized", false},
		{"unoptimized", true},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			p, err := vm.Compile(info, vm.Options{SubflowCount: -1, DisableOptimizations: variant.disable})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(p.Insns)), "insns")
			env := fig9Env(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				if err := p.Exec(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
