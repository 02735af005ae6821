package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The catalogue is the single list of what the benchmark runs and what
// it reports: BENCHMARK.json at the repository root, `-list` and the
// README tables are views of it, and a test fails when BENCHMARK.json
// drifts from it.

// workloadDef is one workload.
type workloadDef struct {
	Name string
	Loop string // open or closed loop, with its rate or client count
	Why  string // why this workload exists: one line of at most 200 characters
	// Simulation marks the workloads that run connections through the
	// substrate. They report every flat end-to-end metric, so they are
	// the ones BENCHMARK.json lists for the driver; the two corpus
	// workloads reach the driver as per-layer metrics of a traced run.
	Simulation bool
	run        func(cfg runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{
		Name: "exec_corpus", Loop: "closed loop, one caller",
		Why: "closed loop, one caller: every corpus program on vm, closures and interpreter against a shallow and a deep environment; the back-ends do all the work, the substrate none (Fig. 9 over the corpus)",
		run: runExecCorpus,
	},
	{
		Name: "load_corpus", Loop: "closed loop, one caller",
		Why: "closed loop, one caller: source text to first decision for every corpus program; front end, analyzer and VM compiler compile rather than execute, so a pass that slows loading shows",
		run: runLoadCorpus,
	},
	{
		Name: "stream_shallowq", Loop: "open loop in virtual time, 2.5 MB/s in 10 ms writes", Simulation: true,
		Why: "open loop in virtual time, 2.5 MB/s below path capacity, minRTT on two paths, queue about 15 segments: per-packet substrate cost with the scheduler a small share (steady interactive case)",
		run: func(cfg runConfig) (*outcome, error) { return runTransfer(streamShallowQ(cfg.size), cfg) },
	},
	{
		Name: "bulk_deepq", Loop: "one 64 MiB write at t=0, run to the final ACK", Simulation: true,
		Why: "one 64 MiB write run to its final ACK on the same paths: a 46k-segment send queue makes the queue structures do the work; a queue fix shows here and must not move stream_shallowq",
		run: func(cfg runConfig) (*outcome, error) { return runTransfer(bulkDeepQ(cfg.size), cfg) },
	},
	{
		Name: "redundant_4path", Loop: "open loop in virtual time, 2.5 MB/s in 10 ms writes", Simulation: true,
		Why: "open loop, 2.5 MB/s, redundant scheduler on four paths: per-subflow QU scans make execution and lazy materialization a quarter of the time; where a VM change must show in situ",
		run: func(cfg runConfig) (*outcome, error) { return runTransfer(redundant4Path(cfg.size), cfg) },
	},
	{
		Name: "fleet_churn", Loop: "closed loop per connection: 16 KiB burst, final ACK, 100 ms think; 1500 connections", Simulation: true,
		Why: "closed loop per connection (16 KiB burst, final ACK, 100 ms think), 1500 connections, fleet.Run on one shard, no store: wheel, world construction and a working set beyond L2",
		run: func(cfg runConfig) (*outcome, error) { return runFleet(fleetChurn(cfg.size), cfg) },
	},
	{
		Name: "fleet_shared", Loop: "closed loop per connection: 16 KiB burst, final ACK, 100 ms think; 1000 connections", Simulation: true,
		Why: "the same closed loop with 1000 connections, a shared store, 32 destination groups and jointFlow: the only workload with xstate epoch publishing on the path; fleet_churn bypasses it",
		run: func(cfg runConfig) (*outcome, error) { return runFleet(fleetShared(cfg.size), cfg) },
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Workload groups, for the metric tables below.
var (
	corpora   = []string{"exec_corpus", "load_corpus"}
	transfers = []string{"stream_shallowq", "bulk_deepq", "redundant_4path"}
	fleets    = []string{"fleet_churn", "fleet_shared"}
	sims      = append(append([]string{}, transfers...), fleets...)
	all       = append(append([]string{}, corpora...), sims...)
)

// metricDef is one metric.
type metricDef struct {
	Name, Unit string
	Better     string  // "lower" or "higher"
	Bound      float64 // end-to-end: share of the parent's median it may worsen by
	Clock      string  // what the number is made of: host time, virtual time, a count
	Workloads  []string
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workloads — written down before anything
	// was measured against it.
	Moves string
	What  string
}

// endToEnd are the metrics a user of the system sees. Wall-timed ones
// go through the quiet-time estimator; virtual-time ones and fail_ratio
// repeat exactly for one seed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host", Workloads: all,
		What: "wall time before the first timed slice: loading schedulers, building environments and worlds, warm-up; median over the run's repetitions"},
	{Name: "decision_ns", Unit: "ns", Better: "lower", Bound: 0.10, Clock: "host", Workloads: []string{"exec_corpus"},
		What: "geometric mean over the 2 × |corpus| vm cells of ns per execution"},
	{Name: "vm_vs_native", Unit: "ratio", Better: "lower", Bound: 0.10, Clock: "host", Workloads: []string{"exec_corpus"},
		What: "minRTT on the shallow environment, vm ÷ native (Fig. 9's ratio)"},
	{Name: "load_us", Unit: "us", Better: "lower", Bound: 0.10, Clock: "host", Workloads: []string{"load_corpus"},
		What: "mean µs from source text to the first vm decision, over the corpus"},
	{Name: "seg_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: "host", Workloads: sims,
		What: "in-order delivered segments per wall second"},
	{Name: "conn_virt_s_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: "host", Workloads: sims,
		What: "connections × virtual seconds simulated per wall second"},
	{Name: "delivery_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Clock: "virtual", Workloads: sims,
		What: "median virtual µs from a write's due time (a burst's start, for fleets) to in-order delivery of each of its segments"},
	{Name: "delivery_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Clock: "virtual", Workloads: sims,
		What: "99th percentile of the same"},
	{Name: "fct_ms", Unit: "ms", Better: "lower", Bound: 0.05, Clock: "virtual", Workloads: transfers,
		What: "virtual ms from the first measured write to the final ACK"},
	{Name: "allocs_per_seg", Unit: "count", Better: "lower", Bound: 0.04, Clock: "count", Workloads: sims,
		What: "heap allocations per delivered segment over the timed region of the verification pass (fleets: over fleet.Run, construction included)"},
	{Name: "bytes_per_conn", Unit: "B", Better: "lower", Bound: 0.05, Clock: "count", Workloads: sims,
		What: "heap a connection world holds: transfers, after the final ACK; fleets, Result.BytesPerConn across construction"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Clock: "count", Workloads: all,
		What: "failed ÷ attempted operations; also the run's attempted, failed and correct"},
}

// perLayer are the single-layer metrics. The probes are timed from
// here around a layer's public functions; the counts come from the
// substrate's own counters during a workload; the trace shares from
// the benchmark-side spans.
var perLayer = []metricDef{
	// Front end, analyzer, compilers: load_corpus stage by stage.
	{Name: "lang.parse_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "load_us@load_corpus; setup_s everywhere", What: "lang.Parse, mean per corpus program"},
	{Name: "types.check_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "load_us@load_corpus", What: "types.Check"},
	{Name: "analysis.analyze_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "load_us@load_corpus", What: "analysis.Analyze, the admission gate"},
	{Name: "vm.compile_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "load_us@load_corpus", What: "vm.Compile, generic program"},
	{Name: "vm.specialize_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "load_us@load_corpus", What: "vm.Compile specialized for two subflows"},
	{Name: "compile.new_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "core.load_compile_us", What: "compile.New, the closure compiler"},
	{Name: "interp.new_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "core.load_interp_us", What: "interp.New"},
	{Name: "core.load_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "load_us@load_corpus; setup_s on every simulation", What: "LoadSchedulerBackend on the vm"},
	{Name: "core.load_compile_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "setup_s@exec_corpus", What: "LoadSchedulerBackend on the closure back-end"},
	{Name: "core.load_interp_us", Unit: "us", Better: "lower", Clock: "host", Workloads: []string{"load_corpus"}, Moves: "setup_s@exec_corpus", What: "LoadSchedulerBackend on the interpreter"},
	{Name: "vm.code_len", Unit: "count", Better: "lower", Clock: "count", Workloads: []string{"load_corpus"}, Moves: "vm.compile_us, vm.exec_ns", What: "mean generic bytecode length over the corpus"},

	// Back-ends: exec_corpus cell by cell.
	{Name: "vm.exec_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: []string{"exec_corpus"}, Moves: "decision_ns@exec_corpus; seg_per_s@redundant_4path; at most 7 % of stream_shallowq", What: "geomean ns per execution over the vm cells"},
	{Name: "compile.exec_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: []string{"exec_corpus"}, Moves: "none end to end: no simulation runs closures", What: "the same over the closure cells"},
	{Name: "interp.exec_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: []string{"exec_corpus"}, Moves: "none end to end: no simulation runs the interpreter", What: "the same over the interpreter cells"},
	{Name: "vm.exec_ns.shallow", Unit: "ns", Better: "lower", Clock: "host", Workloads: []string{"exec_corpus"}, Moves: "seg_per_s@stream_shallowq, conn_virt_s_per_s@fleets", What: "vm cells on 2 subflows, Q=4, QU=2"},
	{Name: "vm.exec_ns.deep", Unit: "ns", Better: "lower", Clock: "host", Workloads: []string{"exec_corpus"}, Moves: "seg_per_s@redundant_4path", What: "vm cells on 8 subflows, Q=64, QU=64"},
	{Name: "native.exec_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: []string{"exec_corpus"}, Moves: "vm_vs_native (its base)", What: "native sched.MinRTT on the shallow environment"},
	{Name: "vm.steps_per_decision", Unit: "count", Better: "lower", Clock: "count", Workloads: []string{"exec_corpus"}, Moves: "vm.exec_ns", What: "executed vm instructions per decision over the vm cells"},

	// runtime: the snapshot arena.
	{Name: "runtime.bind_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s@stream_shallowq, redundant_4path", What: "Arena.BindSubflows + 3 × BindQueue + BeginExec"},
	{Name: "runtime.materialize_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s@redundant_4path, stream_shallowq", What: "Queue.At on a cold view"},

	// mptcp.
	{Name: "mptcp.kick_nop_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s on the three transfers; conn_virt_s_per_s@fleets", What: "Conn.Kick, no-op scheduler, windows full: buildEnv + empty apply"},
	{Name: "mptcp.kick_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s on the three transfers; conn_virt_s_per_s@fleets", What: "Conn.Kick under minRTT on the vm"},
	{Name: "mptcp.kick_deepq_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s@bulk_deepq only", What: "Conn.Kick, no-op scheduler, 46k segments queued"},
	{Name: "mptcp.send_ns_per_seg", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s@bulk_deepq (first slice); trace.send_share", What: "Conn.Send segmentation and enqueue"},
	{Name: "mptcp.execs_per_seg", Unit: "count", Better: "lower", Clock: "count", Workloads: sims, Moves: "seg_per_s, conn_virt_s_per_s", What: "scheduler executions per delivered segment"},
	{Name: "mptcp.pushes_per_exec", Unit: "count", Better: "higher", Clock: "count", Workloads: sims, Moves: "mptcp.execs_per_seg", What: "pushes that became a transmission ÷ executions: useful outcomes per attempt"},
	{Name: "mptcp.retx_per_seg", Unit: "count", Better: "lower", Clock: "count", Workloads: sims, Moves: "delivery_p99_us, fct_ms", What: "subflow retransmissions per delivered segment"},
	{Name: "mptcp.sched_exec_p50_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: sims, Moves: "trace.exec_share", What: "conn.sched_exec_ns median from the obs registry, instrumented pass"},
	{Name: "mptcp.sched_exec_p99_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: sims, Moves: "none: informational tail", What: "its 99th percentile"},

	// netsim.
	{Name: "netsim.event_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s, conn_virt_s_per_s everywhere", What: "Engine.At + Step with 1000 events pending"},
	{Name: "netsim.path_send_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s, conn_virt_s_per_s everywhere", What: "Path.SendTracked with no-op callbacks"},
	{Name: "netsim.events_per_seg", Unit: "count", Better: "lower", Clock: "count", Workloads: sims, Moves: "seg_per_s, conn_virt_s_per_s", What: "engine events per delivered segment"},

	// fleet.
	{Name: "fleet.build_us_per_conn", Unit: "us", Better: "lower", Clock: "host", Workloads: all, Moves: "setup_s@fleets", What: "fleet.Run's time outside Result.Wall, per connection"},
	{Name: "fleet.idle_conn_slice_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleets", What: "wheel cost per slice of a connection that never sends"},
	{Name: "fleet.scale2", Unit: "ratio", Better: "higher", Clock: "host", Workloads: fleets, Moves: "none: informational on two shared cores", What: "two-shard ÷ one-shard throughput on the workload's own fleet"},

	// obs.
	{Name: "obs.counter_add_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleets (always instrumented)", What: "Counter.Add"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleets", What: "Histogram.Observe"},
	{Name: "obs.tracer_record_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "seg_per_s only when a tracer is attached", What: "Tracer.Record"},
	{Name: "obs.aggregate_us", Unit: "us", Better: "lower", Clock: "host", Workloads: all, Moves: "none: off the data path", What: "Aggregator.Aggregate over eight connections"},
	{Name: "obs.on_off_ratio", Unit: "ratio", Better: "lower", Clock: "host", Workloads: transfers, Moves: "seg_per_s only when instrumented; fleets pay it always", What: "the transfer with Conn.Instrument(tracer, registry) on ÷ off"},

	// xstate.
	{Name: "xstate.load_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleet_shared only", What: "Store.Load"},
	{Name: "xstate.record_rtt_ns.d1", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleet_shared only", What: "Store.RecordRTT, one destination"},
	{Name: "xstate.record_rtt_ns.d64", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleet_shared only", What: "Store.RecordRTT, 64 destinations"},
	{Name: "xstate.setglobals_ns", Unit: "ns", Better: "lower", Clock: "host", Workloads: all, Moves: "conn_virt_s_per_s@fleet_shared only", What: "Store.SetGlobals, one dirty register"},
	{Name: "xstate.epochs_per_conn_s", Unit: "count", Better: "lower", Clock: "count", Workloads: fleets, Moves: "conn_virt_s_per_s@fleet_shared; 0 on fleet_churn", What: "store epochs published per connection and virtual second"},

	// Benchmark-side spans.
	{Name: "trace.exec_share", Unit: "ratio", Better: "lower", Clock: "host", Workloads: sims, Moves: "bounds what a back-end change can gain on the workload", What: "core.exec spans ÷ slice time, traced pass"},
	{Name: "trace.send_share", Unit: "ratio", Better: "lower", Clock: "host", Workloads: transfers, Moves: "bounds what an enqueue change can gain", What: "mptcp.send self time ÷ slice time"},
	{Name: "trace.substrate_share", Unit: "ratio", Better: "lower", Clock: "host", Workloads: sims, Moves: "bounds what an mptcp or netsim change can gain", What: "netsim.run_slice self time ÷ slice time: mptcp + netsim"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Clock: "host", Workloads: sims, Moves: "none: how much the spans cost", What: "traced ÷ untraced wall time"},
}

// flat reports whether the metric fits BENCHMARK.json's end-to-end
// list: every simulation workload reports it, and it has a bound.
func (m *metricDef) flat() bool {
	for _, w := range sims {
		if !m.on(w) {
			return false
		}
	}
	return m.Bound > 0
}

// on reports whether the metric is reported on the workload.
func (m *metricDef) on(workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// driverEndToEnd are the end-to-end metrics BENCHMARK.json lists: its
// format has one flat list that every listed workload must report in
// full and never as 0, so it takes the metrics all five simulations
// share. The rest stay end-to-end here and in the full report, and
// reach the driver in the per-layer list.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.flat() {
			out = append(out, m)
		}
	}
	return out
}

// driverPerLayer is BENCHMARK.json's per-layer list: the end-to-end
// metrics that are not flat, then every per-layer metric.
func driverPerLayer() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.flat() {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

func metricByName(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// runSeconds is BENCHMARK.json's run_seconds: how long one driver run
// measures.
const runSeconds = 18

// benchmarkFile is BENCHMARK.json, with exactly the keys its contract
// names.
type benchmarkFile struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []benchmarkEntry  `json:"workloads"`
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON renders the catalogue as BENCHMARK.json.
func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Simulation {
			f.Workloads = append(f.Workloads, benchmarkEntry{w.Name, w.Why})
		}
	}
	for _, m := range driverEndToEnd() {
		bound := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range driverPerLayer() {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{m.Name, m.Unit, m.Better, nil})
	}
	return f
}

// writeBenchmarkJSON writes BENCHMARK.json's content.
func writeBenchmarkJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(benchmarkJSON())
}

// writeList prints the catalogue for people.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		driver := "full report only"
		if wl.Simulation {
			driver = "BENCHMARK.json"
		}
		fmt.Fprintf(w, "  %-16s %s [%s]\n  %16s %s\n", wl.Name, wl.Loop, driver, "", wl.Why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %-6s %-6s bound %-5.2g %-7s on %s\n  %22s %s\n",
			m.Name, m.Unit, m.Better, m.Bound, m.Clock, strings.Join(m.Workloads, ", "), "", m.What)
	}
	fmt.Fprintln(w, "\nper-layer metrics (→ what each should move):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-26s %-6s %-6s %s\n  %26s → %s\n", m.Name, m.Unit, m.Better, m.What, "", m.Moves)
	}
}
