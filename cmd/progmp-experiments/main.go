// Command progmp-experiments regenerates the paper's evaluation tables and
// figure series (see DESIGN.md for the experiment index; the output of
// -exp all is what EXPERIMENTS.md records). Performance is measured by
// the layered benchmark in bench/ (BENCHMARK.json, bench/README.md),
// not here.
//
// Usage:
//
//	progmp-experiments -exp all
//	progmp-experiments -exp fig13
//
// Experiments: fig1, fig9, fig9tp, fig10b, fig10c, fig12, fig13,
// fig14, upcall, memory, receiver, handover, opportunistic, fairness,
// probing, targetrtt, ablations, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"progmp/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc comment)")
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "progmp-experiments:", err)
		os.Exit(1)
	}
}

// run writes experiment exp ("all" for every one) at seed to w.
func run(w io.Writer, exp string, seed int64) error {
	all := exp == "all"
	any := false
	section := func(id, title string) bool {
		if !all && exp != id {
			return false
		}
		any = true
		fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
		return true
	}

	if all || exp == "fig1" || exp == "fig13" {
		any = true
		fmt.Fprintf(w, "\n=== fig1+fig13 — interactive streaming: default vs backup vs TAP (Fig. 1, Fig. 13) ===\n")
		var rs []experiments.StreamingResult
		for _, v := range []experiments.StreamingVariant{
			experiments.StreamingDefault, experiments.StreamingBackup, experiments.StreamingTAP,
		} {
			r, err := experiments.Streaming(v, seed)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		fmt.Fprint(w, experiments.FormatStreaming(rs))
	}
	if section("fig9", "runtime overhead per scheduling decision (Fig. 9 top)") {
		rs, err := experiments.ExecutionOverhead(200000)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatOverhead(rs))
	}
	if section("fig9tp", "throughput parity across back-ends (Fig. 9 bottom)") {
		rs, err := experiments.ThroughputParity(seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatParity(rs))
	}
	if section("fig10b", "redundancy flavors: FCT vs flow size, 2% loss (Fig. 10b)") {
		points, err := experiments.RedundancyFCT([]int{8, 16, 32, 64, 128, 256, 512}, experiments.RedundancySchedulers, 16)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFCT(points, experiments.RedundancySchedulers))
	}
	if section("fig10c", "redundancy flavors: normalized throughput (Fig. 10c)") {
		points, err := experiments.RedundancyThroughput(experiments.RedundancySchedulers, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatThroughput(points))
	}
	if section("fig12", "flow-end compensation vs RTT ratio (Fig. 12)") {
		points, err := experiments.CompensationSweep([]float64{1, 1.5, 2, 3, 4, 6, 8}, 8)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatCompensation(points))
	}
	if section("fig14", "HTTP/2-aware scheduling (Fig. 14)") {
		delays := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond}
		points, err := experiments.HTTP2Sweep(delays, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatHTTP2(points))
	}
	if section("upcall", "in-stack execution vs userspace up-call (§4.1)") {
		r, err := experiments.UpcallOverhead(100000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "direct   %8.0f ns/decision\nupcall   %8.0f ns/decision\nfactor   %8.1fx\n",
			r.DirectNsPerOp, r.UpcallNsPerOp, r.Factor)
	}
	if section("memory", "scheduler memory footprints (§4.3)") {
		rs, err := experiments.MemoryFootprints()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %14s %14s\n", "scheduler", "program B", "instance B")
		for _, r := range rs {
			fmt.Fprintf(w, "%-14s %14d %14d\n", r.Scheduler, r.ProgramBytes, r.InstanceBytes)
		}
	}
	if section("receiver", "legacy vs optimized receiver (§4.2)") {
		rs, err := experiments.ReceiverComparison(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %18s %14s %14s\n", "mode", "mean delivery", "fct", "held segs")
		for _, r := range rs {
			fmt.Fprintf(w, "%-10v %18v %14v %14d\n", r.Mode, r.MeanDeliveryLatency.Round(time.Microsecond), r.FCT.Round(time.Microsecond), r.HeldSegments)
		}
	}
	if section("handover", "WiFi→LTE handover (§5.2)") {
		for _, sched := range []string{"minRTT", "handoverAware"} {
			r, err := experiments.Handover(sched, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-16s interruption %10v   fct %10v   completed %v\n",
				r.Scheduler, r.Interruption.Round(time.Millisecond), r.FCT.Round(time.Millisecond), r.Completed)
		}
	}
	if section("opportunistic", "opportunistic retransmission under receive-window blocking (§3.4)") {
		for _, sched := range []string{"minRTT", "minRTTOpportunistic"} {
			r, err := experiments.Opportunistic(sched, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-22s fct %10v   goodput %6.2f MB/s   completed %v\n",
				r.Scheduler, r.FCT.Round(time.Millisecond), r.Goodput/1e6, r.Completed)
		}
	}
	if section("fairness", "shared-bottleneck fairness of the coupled congestion controls (§2.1)") {
		for _, cc := range []string{"reno", "lia", "olia"} {
			r, err := experiments.Fairness(cc, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-6s mptcp %6.2f MB/s   tcp %6.2f MB/s   ratio %5.2f\n",
				r.CC, r.MPTCPGoodput/1e6, r.TCPGoodput/1e6, r.Ratio)
		}
	}
	if section("probing", "probing for fresh estimates on idle subflows (Table 2)") {
		for _, sched := range []string{"minRTT", "probingMinRTT"} {
			r, err := experiments.Probing(sched, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-16s mean response %10v   fast-path share %5.0f%%   responses %d\n",
				r.Scheduler, r.MeanResponse.Round(time.Millisecond), r.FastPathShare*100, r.Responses)
		}
	}
	if section("targetrtt", "target-RTT preference-aware scheduling (§5.4)") {
		for _, sched := range []string{"minRTT", "targetRTT"} {
			r, err := experiments.TargetRTT(sched, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s mean %10v   p95 %10v   lte bytes %10d   responses %d\n",
				r.Scheduler, r.MeanResponse.Round(time.Millisecond), r.P95Response.Round(time.Millisecond), r.LTEBytes, r.Responses)
		}
	}
	if section("ablations", "calling-model ablations: compressed executions (§4.1), TSQ-drain trigger (Fig. 4)") {
		rs, err := experiments.Ablations(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %12s %10s %12s %10s\n", "design choice", "with fct", "execs", "without fct", "execs")
		for _, r := range rs {
			fmt.Fprintf(w, "%-22s %12v %10d %12v %10d\n", r.Choice,
				r.With.Round(time.Microsecond), r.WithExecs, r.Without.Round(time.Microsecond), r.WithoutExecs)
		}
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
