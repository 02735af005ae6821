// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results). Micro-benchmarks
// (Fig. 9 top, §4.1 up-call, §4.3 memory) report per-operation costs;
// scenario benchmarks run one full simulation per iteration and attach
// the figure's headline quantities as custom metrics.
package progmp

import (
	"fmt"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/experiments"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
	"progmp/internal/obs"
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

func parse(src string) (*lang.Program, error) { return lang.Parse(src) }

func mustCheck(b *testing.B, src string) *types.Info {
	b.Helper()
	info, err := func() (*types.Info, error) {
		prog, err := parse(src)
		if err != nil {
			return nil, err
		}
		return types.Check(prog)
	}()
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

// ---- Fig. 9 (bottom): throughput parity across back-ends ----

func BenchmarkFig09_ThroughputParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.ThroughputParity(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			b.ReportMetric(r.GoodputBps/1e6, r.Backend+"-MB/s")
		}
	}
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

// ---- §4.3: memory footprint ----

func BenchmarkSec43_MemoryFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.MemoryFootprints()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			b.ReportMetric(float64(r.ProgramBytes), r.Scheduler+"-B")
		}
		b.ReportMetric(float64(core.InstanceFootprint()), "instance-B")
	}
}

// ---- Fig. 1 + Fig. 13: interactive streaming ----

func BenchmarkFig01_Motivation(b *testing.B) {
	benchStreaming(b, experiments.StreamingDefault)
}

func BenchmarkFig13_TAP(b *testing.B) {
	benchStreaming(b, experiments.StreamingTAP)
}

func benchStreaming(b *testing.B, variant experiments.StreamingVariant) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Streaming(variant, core.BackendVM, int64(i+3))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.LowPhaseLTEShare*100, "lte-share-low-%")
		b.ReportMetric(r.HighPhaseGoodput/1e6, "goodput-high-MB/s")
		b.ReportMetric(float64(r.LTEBytes)/1e6, "lte-MB")
	}
}

// ---- Fig. 10b: redundancy flavors, FCT vs flow size ----

func BenchmarkFig10b_RedundantFCT(b *testing.B) {
	for _, scheduler := range experiments.RedundancySchedulers {
		scheduler := scheduler
		b.Run(scheduler, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiments.RedundancyFCT(core.BackendVM, []int{16, 64, 256}, []string{scheduler}, 4)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range points {
					b.ReportMetric(float64(p.MeanFCT.Microseconds())/1000, fmt.Sprintf("%dKB-ms", p.FlowKB))
				}
			}
		})
	}
}

// ---- Fig. 10c: redundancy flavors, normalized throughput ----

func BenchmarkFig10c_RedundantThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RedundancyThroughput(core.BackendVM, experiments.RedundancySchedulers, int64(i+11))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.Normalized, p.Scheduler+"-"+p.Workload+"-x")
		}
	}
}

// ---- Fig. 12: flow-end compensation ----

func BenchmarkFig12_Compensation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.CompensationSweep(core.BackendVM, []float64{1, 4}, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.RTTRatio == 4 {
				b.ReportMetric(float64(p.MeanFCT.Microseconds())/1000, p.Scheduler+"-r4-ms")
			}
		}
	}
}

// ---- Fig. 14: HTTP/2-aware scheduling ----

func BenchmarkFig14_HTTP2Aware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.HTTP2Sweep(core.BackendVM, []time.Duration{40 * time.Millisecond}, int64(i+5))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(float64(p.DependencyRetrieved.Microseconds())/1000, p.Scheduler+"-deps-ms")
			b.ReportMetric(float64(p.LTEBytes)/1024, p.Scheduler+"-lte-KB")
		}
	}
}

// ---- §4.2: receiver-side packet handling ----

func BenchmarkSec42_ReceiverDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.ReceiverComparison(core.BackendVM, int64(i+17))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			b.ReportMetric(float64(r.MeanDeliveryLatency.Microseconds())/1000, r.Mode.String()+"-mean-ms")
		}
	}
}

// ---- §5.2: handover ----

func BenchmarkSec52_Handover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scheduler := range []string{"minRTT", "handoverAware"} {
			r, err := experiments.Handover(scheduler, core.BackendVM, int64(i+9))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.Interruption.Microseconds())/1000, scheduler+"-gap-ms")
		}
	}
}

// ---- §5.4: target RTT ----

func BenchmarkSec54_TargetRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scheduler := range []string{"minRTT", "targetRTT"} {
			r, err := experiments.TargetRTT(scheduler, core.BackendVM, int64(i+13))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.P95Response.Microseconds())/1000, scheduler+"-p95-ms")
		}
	}
}

// ---- Compiler pipeline micro-benchmarks ----

func BenchmarkCompilePipeline(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parse(schedlib.MinRTT); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		prog, _ := parse(schedlib.MinRTT)
		for i := 0; i < b.N; i++ {
			if _, err := types.Check(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-vm", func(b *testing.B) {
		info := mustCheck(b, schedlib.MinRTT)
		for i := 0; i < b.N; i++ {
			if _, err := vm.Compile(info, vm.Options{SubflowCount: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkAblation_CompressedExecutions compares the compressed-
// execution calling model (§4.1) against strictly one execution per
// trigger: flow completion time and scheduler invocations for a short
// transfer.
func BenchmarkAblation_CompressedExecutions(b *testing.B) {
	run := func(maxIter int) (time.Duration, int64) {
		eng := netsimEngine(1)
		conn := mptcpConn(eng, maxIter, false)
		var fct time.Duration
		var got int64
		const total = 128 << 10
		conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
			got += int64(size)
			if got >= total && fct == 0 {
				fct = at
			}
		})
		eng.After(0, func() { conn.Send(total, 0) })
		eng.RunUntil(20 * time.Second)
		return fct, conn.SchedulerExecutions
	}
	for i := 0; i < b.N; i++ {
		fctFull, execsFull := run(0) // default: compressed executions on
		fctOne, execsOne := run(1)
		b.ReportMetric(float64(fctFull.Microseconds())/1000, "compressed-fct-ms")
		b.ReportMetric(float64(fctOne.Microseconds())/1000, "single-exec-fct-ms")
		b.ReportMetric(float64(execsFull), "compressed-execs")
		b.ReportMetric(float64(execsOne), "single-execs")
	}
}

// BenchmarkAblation_TSQWake compares the TSQ-drain scheduler trigger
// against purely ACK-clocked scheduling (the trigger model of Fig. 4).
func BenchmarkAblation_TSQWake(b *testing.B) {
	run := func(disable bool) time.Duration {
		eng := netsimEngine(1)
		conn := mptcpConn(eng, 0, disable)
		var fct time.Duration
		var got int64
		const total = 128 << 10
		conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
			got += int64(size)
			if got >= total && fct == 0 {
				fct = at
			}
		})
		eng.After(0, func() { conn.Send(total, 0) })
		eng.RunUntil(20 * time.Second)
		return fct
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(false).Microseconds())/1000, "tsq-wake-fct-ms")
		b.ReportMetric(float64(run(true).Microseconds())/1000, "ack-clocked-fct-ms")
	}
}

// ---- Observability overhead (docs/OBSERVABILITY.md) ----

// BenchmarkObsOverhead quantifies the observability layer's cost on
// the hot paths. "exec-off" is the tracing-disabled VM execution path —
// the configuration that must stay within 2% of the seed's
// BenchmarkFig09 vm numbers, since uninstrumented code pays only
// nil checks on the obs handles. "exec-steps" adds the opt-in VM step
// counter. The transfer variants run a full 128 KiB two-path transfer
// per iteration with instrumentation off and fully on.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("exec-off", func(b *testing.B) {
		benchExec(b, core.MustLoad("minRTT", schedlib.MinRTT, core.BackendVM), 2)
	})
	b.Run("exec-steps", func(b *testing.B) {
		s := core.MustLoad("minRTT", schedlib.MinRTT, core.BackendVM)
		s.EnableStepMetrics()
		benchExec(b, s, 2)
	})
	transfer := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			eng := netsimEngine(int64(i + 1))
			conn := mptcpConn(eng, 0, false)
			if instrument {
				conn.Instrument(obs.NewTracer(0), obs.NewRegistry())
			}
			eng.After(0, func() { conn.Send(128<<10, 0) })
			eng.RunUntil(20 * time.Second)
			if !conn.AllAcked() {
				b.Fatal("transfer did not complete")
			}
		}
	}
	b.Run("transfer-off", func(b *testing.B) { transfer(b, false) })
	b.Run("transfer-traced", func(b *testing.B) { transfer(b, true) })
}

// netsimEngine and mptcpConn are small fixtures for the substrate
// ablations: a two-path WiFi/LTE-like network with the default
// scheduler on the compiled back-end.
func netsimEngine(seed int64) *netsim.Engine { return netsim.NewEngine(seed) }

func mptcpConn(eng *netsim.Engine, maxIter int, disableTSQ bool) *mptcp.Conn {
	conn := mptcp.NewConn(eng, mptcp.Config{
		MaxSchedIterations: maxIter,
		DisableTSQWake:     disableTSQ,
	})
	for i, d := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name:  fmt.Sprintf("p%d", i),
			Rate:  netsim.ConstantRate(3e6),
			Delay: d,
		})
		if _, err := conn.AddSubflow(mptcp.SubflowConfig{Name: fmt.Sprintf("p%d", i), Link: link}); err != nil {
			panic(err)
		}
	}
	conn.SetScheduler(core.MustLoad("minRTT", schedlib.MinRTT, core.BackendCompiled))
	return conn
}
