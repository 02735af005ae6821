// Wall-time benchmarks of the paper's evaluation: in-stack execution
// against an up-call (§4.1) and the VM's compile-time design choices.
// Fig. 9 (top), per-decision execution cost across back-ends, is
// `progmp-experiments -exp fig9`; the virtual-time figures are pinned
// by cmd/progmp-experiments' TestEvaluationGolden (DESIGN.md §3
// indexes both).
package progmp

import (
	"testing"

	"progmp/internal/envtest"
	"progmp/internal/experiments"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

// fig9Env builds the environment of the ablations, Fig. 9 (top)'s: a
// populated send queue and available subflows so the default scheduler
// performs real selection work.
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

func mustCheck(b *testing.B, src string) *types.Info {
	b.Helper()
	info, err := checkSource(src)
	if err != nil {
		b.Fatal(err)
	}
	return info
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
