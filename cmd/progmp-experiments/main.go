// Command progmp-experiments regenerates the paper's evaluation: one
// markdown table per section (DESIGN.md §3 indexes them). EXPERIMENTS.md
// holds every virtual-time table between marker comments, and
// TestEvaluationGolden pins each block to this command's output at
// seed 7 (`go test ./cmd/progmp-experiments -run TestEvaluationGolden
// -update` rewrites the blocks). Performance is measured by the layered
// benchmark in bench/ (BENCHMARK.json, bench/README.md), not here.
//
// Usage:
//
//	progmp-experiments -exp all
//	progmp-experiments -exp fig13
//
// Experiments: fig1 (or fig13), fig9, fig9tp, fig10b, fig10c, fig12,
// fig14, upcall, memory, receiver, handover, opportunistic, fairness,
// probing, targetrtt, ablations, chaos, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"progmp/internal/core"
	"progmp/internal/experiments"
	"progmp/internal/mptcp"
	"progmp/internal/schedlib"
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

// A section is one table of the evaluation. rows returns its header
// and cells at a seed. wall marks a section that reports wall time,
// which differs on every machine, so no golden pins it. An id that
// joins ids with "+" answers to each of them.
type section struct {
	id, title string
	wall      bool
	rows      func(seed int64) (header []string, cells [][]string, err error)
}

// run writes experiment exp ("all" for every one) at seed to w.
func run(w io.Writer, exp string, seed int64) error {
	found := false
	for _, s := range sections {
		if exp != "all" && !slices.Contains(strings.Split(s.id, "+"), exp) {
			continue
		}
		found = true
		table, err := s.table(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		fmt.Fprintf(w, "\n## %s — %s\n\n%s", s.id, s.title, table)
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// table renders the section at seed as a markdown table.
func (s section) table(seed int64) (string, error) {
	header, cells, err := s.rows(seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(header)
	b.WriteString(strings.Repeat("|---", len(header)) + "|\n")
	for _, row := range cells {
		line(row)
	}
	return b.String(), nil
}

// each runs row on every input in order and stops at the first error.
func each[T any](in []T, row func(T) ([]string, error)) ([][]string, error) {
	var cells [][]string
	for _, x := range in {
		r, err := row(x)
		if err != nil {
			return nil, err
		}
		cells = append(cells, r)
	}
	return cells, nil
}

// rowsOf makes one row of each input, in order.
func rowsOf[T any](in []T, row func(T) []string) [][]string {
	cells := make([][]string, len(in))
	for i, x := range in {
		cells[i] = row(x)
	}
	return cells
}

// msec renders d in milliseconds to 0.1 ms, as the figures plot it.
func msec(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

// chaosSeed is the seed of the chaos matrix, mpsim -chaos all's
// (TestChaosGolden pins its minRTT column).
const chaosSeed = 42

var sections = []section{
	{id: "fig1+fig13", title: "interactive streaming: default vs backup vs TAP (Fig. 1, Fig. 13)",
		rows: func(seed int64) ([]string, [][]string, error) {
			variants := []experiments.StreamingVariant{experiments.StreamingDefault, experiments.StreamingBackup, experiments.StreamingTAP}
			cells, err := each(variants, func(v experiments.StreamingVariant) ([]string, error) {
				r, err := experiments.Streaming(v, seed)
				return []string{string(r.Variant), fmt.Sprintf("%.2f", float64(r.WiFiBytes)/1e6), fmt.Sprintf("%.2f", float64(r.LTEBytes)/1e6),
					fmt.Sprintf("%.1f%%", r.LowPhaseLTEShare*100), fmt.Sprintf("%.2f", r.HighPhaseGoodput/1e6)}, err
			})
			return []string{"variant", "wifi MB", "lte MB", "lte share (1MB/s)", "goodput@4MB/s (MB/s)"}, cells, err
		}},
	{id: "fig9", title: "runtime overhead per scheduling decision (Fig. 9 top)", wall: true,
		rows: func(int64) ([]string, [][]string, error) {
			rs, err := experiments.ExecutionOverhead(200000)
			return []string{"backend", "subflows", "ns/exec", "vs native"}, rowsOf(rs, func(r experiments.OverheadResult) []string {
				return []string{r.Backend, fmt.Sprint(r.Subflows), fmt.Sprintf("%.1f", r.NsPerOp), fmt.Sprintf("%.0f%%", r.RelativeToNative*100)}
			}), err
		}},
	{id: "fig9tp", title: "throughput parity across back-ends (Fig. 9 bottom)",
		rows: func(seed int64) ([]string, [][]string, error) {
			rs, err := experiments.ThroughputParity(seed)
			return []string{"backend", "goodput MB/s"}, rowsOf(rs, func(r experiments.ThroughputParityResult) []string {
				return []string{r.Backend, fmt.Sprintf("%.2f", r.GoodputBps/1e6)}
			}), err
		}},
	{id: "fig10b", title: "redundancy flavors: FCT vs flow size, 2% loss (Fig. 10b)",
		rows: func(int64) ([]string, [][]string, error) {
			sizes := []int{8, 16, 32, 64, 128, 256, 512}
			points, err := experiments.RedundancyFCT(sizes, experiments.RedundancySchedulers, 16)
			fct := map[string]string{}
			for _, p := range points {
				fct[fmt.Sprintf("%s/%d", p.Scheduler, p.FlowKB)] = msec(p.MeanFCT) + " ms"
			}
			return append([]string{"flow KB"}, experiments.RedundancySchedulers...), rowsOf(sizes, func(kb int) []string {
				row := []string{fmt.Sprint(kb)}
				for _, s := range experiments.RedundancySchedulers {
					row = append(row, fct[fmt.Sprintf("%s/%d", s, kb)])
				}
				return row
			}), err
		}},
	{id: "fig10c", title: "redundancy flavors: normalized throughput (Fig. 10c)",
		rows: func(seed int64) ([]string, [][]string, error) {
			points, err := experiments.RedundancyThroughput(experiments.RedundancySchedulers, seed)
			return []string{"scheduler", "workload", "normalized", "goodput MB/s"}, rowsOf(points, func(p experiments.ThroughputPoint) []string {
				return []string{p.Scheduler, p.Workload, fmt.Sprintf("%.2f", p.Normalized), fmt.Sprintf("%.2f", p.GoodputBps/1e6)}
			}), err
		}},
	{id: "fig12", title: "flow-end compensation vs RTT ratio (Fig. 12)",
		rows: func(int64) ([]string, [][]string, error) {
			ratios := []float64{1, 1.5, 2, 3, 4, 6, 8}
			points, err := experiments.CompensationSweep(ratios, 8)
			byKey := map[string]experiments.CompensationPoint{}
			for _, p := range points {
				byKey[fmt.Sprintf("%s/%.2f", p.Scheduler, p.RTTRatio)] = p
			}
			header := []string{"rtt ratio"}
			for _, s := range experiments.CompensationSchedulers {
				header = append(header, s+" FCT", s+" ovh")
			}
			return header, rowsOf(ratios, func(ratio float64) []string {
				row := []string{fmt.Sprintf("%.1f", ratio)}
				for _, s := range experiments.CompensationSchedulers {
					p := byKey[fmt.Sprintf("%s/%.2f", s, ratio)]
					row = append(row, msec(p.MeanFCT)+" ms", fmt.Sprintf("%.2fx", p.OverheadVsDefault))
				}
				return row
			}), err
		}},
	{id: "fig14", title: "HTTP/2-aware scheduling (Fig. 14)",
		rows: func(seed int64) ([]string, [][]string, error) {
			delays := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond}
			points, err := experiments.HTTP2Sweep(delays, seed)
			return []string{"scheduler", "wifi +delay", "deps ms", "initial ms", "full ms", "lte KB"}, rowsOf(points, func(p experiments.HTTP2Point) []string {
				return []string{p.Scheduler, fmt.Sprint(p.WiFiExtraDelay), msec(p.DependencyRetrieved), msec(p.InitialPage), msec(p.FullLoad),
					fmt.Sprintf("%.1f", float64(p.LTEBytes)/1024)}
			}), err
		}},
	{id: "upcall", title: "in-stack execution vs userspace up-call (§4.1)", wall: true,
		rows: func(int64) ([]string, [][]string, error) {
			r, err := experiments.UpcallOverhead(100000)
			return []string{"direct ns/decision", "upcall ns/decision", "factor"},
				[][]string{{fmt.Sprintf("%.0f", r.DirectNsPerOp), fmt.Sprintf("%.0f", r.UpcallNsPerOp), fmt.Sprintf("%.1fx", r.Factor)}}, err
		}},
	{id: "memory", title: "scheduler memory footprints (§4.3)",
		rows: func(int64) ([]string, [][]string, error) {
			rs, err := experiments.MemoryFootprints()
			return []string{"scheduler", "program B", "instance B"}, rowsOf(rs, func(r experiments.MemoryResult) []string {
				return []string{r.Scheduler, fmt.Sprint(r.ProgramBytes), fmt.Sprint(r.InstanceBytes)}
			}), err
		}},
	{id: "receiver", title: "legacy vs optimized receiver (§4.2)",
		rows: func(seed int64) ([]string, [][]string, error) {
			rs, err := experiments.ReceiverComparison(seed)
			return []string{"mode", "mean delivery", "fct", "held segs"}, rowsOf(rs, func(r experiments.ReceiverResult) []string {
				return []string{r.Mode.String(), fmt.Sprint(r.MeanDeliveryLatency.Round(time.Microsecond)), fmt.Sprint(r.FCT.Round(time.Microsecond)),
					fmt.Sprint(r.HeldSegments)}
			}), err
		}},
	{id: "handover", title: "WiFi→LTE handover (§5.2)",
		rows: func(seed int64) ([]string, [][]string, error) {
			cells, err := each([]string{"minRTT", "handoverAware"}, func(sched string) ([]string, error) {
				r, err := experiments.Handover(sched, seed)
				return []string{r.Scheduler, fmt.Sprint(r.Interruption.Round(time.Millisecond)), fmt.Sprint(r.FCT.Round(time.Millisecond)),
					fmt.Sprint(r.Completed)}, err
			})
			return []string{"scheduler", "interruption", "fct", "completed"}, cells, err
		}},
	{id: "opportunistic", title: "opportunistic retransmission under receive-window blocking (§3.4)",
		rows: func(seed int64) ([]string, [][]string, error) {
			cells, err := each([]string{"minRTT", "minRTTOpportunistic"}, func(sched string) ([]string, error) {
				r, err := experiments.Opportunistic(sched, seed)
				return []string{r.Scheduler, fmt.Sprint(r.FCT.Round(time.Millisecond)), fmt.Sprintf("%.2f", r.Goodput/1e6), fmt.Sprint(r.Completed)}, err
			})
			return []string{"scheduler", "fct", "goodput MB/s", "completed"}, cells, err
		}},
	{id: "fairness", title: "shared-bottleneck fairness of the coupled congestion controls (§2.1)",
		rows: func(seed int64) ([]string, [][]string, error) {
			cells, err := each([]string{"reno", "lia", "olia"}, func(cc string) ([]string, error) {
				r, err := experiments.Fairness(cc, seed)
				return []string{r.CC, fmt.Sprintf("%.2f", r.MPTCPGoodput/1e6), fmt.Sprintf("%.2f", r.TCPGoodput/1e6), fmt.Sprintf("%.2f", r.Ratio)}, err
			})
			return []string{"cc", "mptcp MB/s", "tcp MB/s", "ratio"}, cells, err
		}},
	{id: "probing", title: "probing for fresh estimates on idle subflows (Table 2)",
		rows: func(seed int64) ([]string, [][]string, error) {
			cells, err := each([]string{"minRTT", "probingMinRTT"}, func(sched string) ([]string, error) {
				r, err := experiments.Probing(sched, seed)
				return []string{r.Scheduler, fmt.Sprint(r.MeanResponse.Round(time.Millisecond)), fmt.Sprintf("%.0f%%", r.FastPathShare*100),
					fmt.Sprint(r.Responses)}, err
			})
			return []string{"scheduler", "mean response", "fast-path share", "responses"}, cells, err
		}},
	{id: "targetrtt", title: "target-RTT preference-aware scheduling (§5.4)",
		rows: func(seed int64) ([]string, [][]string, error) {
			cells, err := each([]string{"minRTT", "targetRTT"}, func(sched string) ([]string, error) {
				r, err := experiments.TargetRTT(sched, seed)
				return []string{r.Scheduler, fmt.Sprint(r.MeanResponse.Round(time.Millisecond)), fmt.Sprint(r.P95Response.Round(time.Millisecond)),
					fmt.Sprint(r.LTEBytes), fmt.Sprint(r.Responses)}, err
			})
			return []string{"scheduler", "mean", "p95", "lte bytes", "responses"}, cells, err
		}},
	{id: "ablations", title: "calling-model ablations: compressed executions (§4.1), TSQ-drain trigger (Fig. 4)",
		rows: func(seed int64) ([]string, [][]string, error) {
			rs, err := experiments.Ablations(seed)
			return []string{"design choice", "with fct", "execs", "without fct", "execs"}, rowsOf(rs, func(r experiments.AblationResult) []string {
				return []string{r.Choice, fmt.Sprint(r.With.Round(time.Microsecond)), fmt.Sprint(r.WithExecs),
					fmt.Sprint(r.Without.Round(time.Microsecond)), fmt.Sprint(r.WithoutExecs)}
			}), err
		}},
	{id: "chaos", title: "occupancy-aware scheduling through the chaos matrix, seed 42 (beyond the paper)",
		rows: func(int64) ([]string, [][]string, error) {
			header := []string{"scenario"}
			schedulers := []string{"minRTT", "qaware"}
			for _, sched := range schedulers {
				header = append(header, sched+" FCT")
			}
			cells, err := each(mptcp.ChaosScenarioNames(), func(scenario string) ([]string, error) {
				row := []string{scenario}
				for _, sched := range schedulers {
					s, err := core.Load(sched, schedlib.All[sched], core.BackendVM)
					if err != nil {
						return nil, err
					}
					// The error is the soak's conservation verdict.
					res, err := mptcp.RunChaos(mptcp.ChaosScenarios[scenario], chaosSeed, func() mptcp.Scheduler { return s })
					if err != nil {
						return nil, fmt.Errorf("%s under %s: %w", scenario, sched, err)
					}
					row = append(row, fmt.Sprint(res.FCT.Round(time.Millisecond)))
				}
				return row, nil
			})
			return header, cells, err
		}},
}
