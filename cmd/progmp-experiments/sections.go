package main

import (
	"fmt"
	"math"
	"time"

	"progmp/internal/core"
	"progmp/internal/experiments"
	"progmp/internal/mptcp"
	"progmp/internal/schedlib"
)

// dur is a duration printed rounded to round.
func dur(round, d time.Duration) cell {
	return cell{value: float64(d), format: func(v float64) string { return fmt.Sprint(time.Duration(v).Round(round)) }}
}

// msec is a duration in milliseconds to 0.1 ms, as the figures plot
// it, printed with a fmt layout.
func msec(layout string, d time.Duration) cell {
	return cell{value: float64(d), format: func(v float64) string {
		return fmt.Sprintf(layout, float64(time.Duration(v).Microseconds())/1000)
	}}
}

// each runs exp on every name in order and stops at the first error.
func each[N, T any](names []N, exp func(N) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	for i, name := range names {
		var err error
		if out[i], err = exp(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rowsOf makes one row of each input, in order.
func rowsOf[T any](in []T, row func(T) []cell) [][]cell {
	cells := make([][]cell, len(in))
	for i, x := range in {
		cells[i] = row(x)
	}
	return cells
}

// find returns the first of xs that match accepts. A section looks up
// only what its experiment ran, so a miss is a bug in the section.
func find[T any](xs []T, match func(T) bool) T {
	for _, x := range xs {
		if match(x) {
			return x
		}
	}
	panic(fmt.Sprintf("progmp-experiments: no such %T", *new(T)))
}

// all reports whether holds is true of every x.
func all[T any](xs []T, holds func(T) bool) bool {
	for _, x := range xs {
		if !holds(x) {
			return false
		}
	}
	return true
}

func fct(ps []experiments.FCTPoint, sched string, kb int) time.Duration {
	return find(ps, func(p experiments.FCTPoint) bool { return p.Scheduler == sched && p.FlowKB == kb }).MeanFCT
}

// bulk is sched's bulk throughput normalized to single-path TCP.
func bulk(ps []experiments.ThroughputPoint, sched string) float64 {
	return find(ps, func(p experiments.ThroughputPoint) bool { return p.Scheduler == sched && p.Workload == "bulk" }).Normalized
}

func compensation(ps []experiments.CompensationPoint, sched string, ratio float64) experiments.CompensationPoint {
	return find(ps, func(p experiments.CompensationPoint) bool { return p.Scheduler == sched && p.RTTRatio == ratio })
}

// growth is sched's FCT at RTT ratio 6 over its FCT at ratio 1.
func growth(ps []experiments.CompensationPoint, sched string) float64 {
	return float64(compensation(ps, sched, 6).MeanFCT) / float64(compensation(ps, sched, 1).MeanFCT)
}

// http2 pairs minRTT's and http2Aware's points at each WiFi delay
// (HTTP2Sweep runs each scheduler over every delay in turn).
func http2(ps []experiments.HTTP2Point) (pairs [][2]experiments.HTTP2Point) {
	for i, n := 0, len(ps)/2; i < n; i++ {
		pairs = append(pairs, [2]experiments.HTTP2Point{ps[i], ps[n+i]})
	}
	return pairs
}

var (
	fig10bSizes       = []int{8, 16, 32, 64, 128, 256, 512}
	fig12Ratios       = []float64{1, 1.5, 2, 3, 4, 6, 8}
	fig14Delays       = []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond}
	streamingVariants = []experiments.StreamingVariant{experiments.StreamingDefault, experiments.StreamingBackup, experiments.StreamingTAP}
)

// chaosRun is a chaos scenario's flow completion time under minRTT and qaware.
type chaosRun struct {
	scenario string
	fct      []time.Duration
}

var sections = []section{
	{id: "fig1+fig13", title: "interactive streaming: default vs backup vs TAP (Fig. 1, Fig. 13)",
		judge: once(func() ([]experiments.StreamingResult, error) { return each(streamingVariants, experiments.Streaming) },
			[]string{"variant", "wifi MB", "lte MB", "lte share (1MB/s)", "goodput@4MB/s (MB/s)"},
			func(rs []experiments.StreamingResult) [][]cell {
				return rowsOf(rs, func(r experiments.StreamingResult) []cell {
					return []cell{text(string(r.Variant)), num("%.2f", float64(r.WiFiBytes)/1e6), num("%.2f", float64(r.LTEBytes)/1e6),
						num("%.1f%%", r.LowPhaseLTEShare*100), num("%.2f", r.HighPhaseGoodput/1e6)}
				})
			},
			// rs holds default, backup and tap, in streamingVariants's order.
			[]claim[[]experiments.StreamingResult]{
				{"default-leaks-lte", 1, "`default` puts ≥ 10% of the 1 MB/s phase on LTE (paper: ~30%)",
					func(rs []experiments.StreamingResult) bool { return rs[0].LowPhaseLTEShare >= 0.10 }},
				{"backup-avoids-lte", 1, "`backup` puts ≤ 2% of the 1 MB/s phase on LTE",
					func(rs []experiments.StreamingResult) bool { return rs[1].LowPhaseLTEShare <= 0.02 }},
				{"backup-starves", 1, "`backup` delivers ≤ 3.4 MB/s in the 4 MB/s phase: WiFi alone cannot sustain it",
					func(rs []experiments.StreamingResult) bool { return rs[1].HighPhaseGoodput <= 3.4e6 }},
				{"tap-spares-lte", 1, "`tap`'s LTE share of the 1 MB/s phase is at most half `default`'s",
					func(rs []experiments.StreamingResult) bool { return rs[2].LowPhaseLTEShare <= rs[0].LowPhaseLTEShare/2 }},
				{"tap-sustains", 1, "`tap` delivers ≥ 3.5 MB/s in the 4 MB/s phase",
					func(rs []experiments.StreamingResult) bool { return rs[2].HighPhaseGoodput >= 3.5e6 }},
				{"tap-undercuts-lte", 1, "`tap` sends fewer LTE bytes than `default` over the session",
					func(rs []experiments.StreamingResult) bool { return rs[2].LTEBytes < rs[0].LTEBytes }},
			}...)},
	{id: "fig9", title: "runtime overhead per scheduling decision (Fig. 9 top)", wall: true,
		judge: once(func() ([]experiments.OverheadResult, error) { return experiments.ExecutionOverhead(200000) },
			[]string{"backend", "subflows", "ns/exec", "vs native"},
			func(rs []experiments.OverheadResult) [][]cell {
				return rowsOf(rs, func(r experiments.OverheadResult) []cell {
					return []cell{text(r.Backend), text(fmt.Sprint(r.Subflows)), num("%.1f", r.NsPerOp), num("%.0f%%", r.RelativeToNative*100)}
				})
			})},
	{id: "fig9tp", title: "throughput parity across back-ends (Fig. 9 bottom)",
		judge: once(experiments.ThroughputParity, []string{"backend", "goodput MB/s"},
			func(rs []experiments.ThroughputParityResult) [][]cell {
				return rowsOf(rs, func(r experiments.ThroughputParityResult) []cell {
					return []cell{text(r.Backend), num("%.2f", r.GoodputBps/1e6)}
				})
			},
			claim[[]experiments.ThroughputParityResult]{"parity", 1, "every back-end's goodput is within 2% of native's: \"the total throughput remains unchanged\"",
				func(rs []experiments.ThroughputParityResult) bool {
					return all(rs, func(r experiments.ThroughputParityResult) bool {
						return math.Abs(r.GoodputBps/rs[0].GoodputBps-1) <= 0.02
					})
				}})},
	{id: "fig10b", title: "redundancy flavors: FCT vs flow size, 2% loss (Fig. 10b)",
		judge: seeded(func(seed int64) ([]experiments.FCTPoint, error) {
			return experiments.RedundancyFCT(fig10bSizes, experiments.RedundancySchedulers, 16, seed)
		},
			append([]string{"flow KB"}, experiments.RedundancySchedulers...),
			func(ps []experiments.FCTPoint) [][]cell {
				return rowsOf(fig10bSizes, func(kb int) []cell {
					row := []cell{text(fmt.Sprint(kb))}
					for _, s := range experiments.RedundancySchedulers {
						row = append(row, msec("%.1f ms", fct(ps, s, kb)))
					}
					return row
				})
			},
			[]claim[[]experiments.FCTPoint]{
				{"redundancy-wins-small", 16, "every redundant flavour beats minRTT at 16 KB: \"all redundant schedulers outperform the default scheduler for small flows\"",
					func(ps []experiments.FCTPoint) bool {
						return all([]string{"redundant", "opportunisticRedundant", "redundantIfNoQ"}, func(s string) bool { return fct(ps, s, 16) < fct(ps, "minRTT", 16) })
					}},
				{"opportunistic-overtakes", 20, "opportunisticRedundant beats redundant at 256 KB, \"as full redundancy becomes more expensive\"",
					func(ps []experiments.FCTPoint) bool {
						return fct(ps, "opportunisticRedundant", 256) < fct(ps, "redundant", 256)
					}},
				{"ifnoq-best-short", 20, "redundantIfNoQ beats every other scheduler at 16 and 64 KB: it \"outperforms all depicted schedulers\"",
					func(ps []experiments.FCTPoint) bool {
						return all([]int{16, 64}, func(kb int) bool {
							return all([]string{"minRTT", "redundant", "opportunisticRedundant"}, func(s string) bool { return fct(ps, "redundantIfNoQ", kb) < fct(ps, s, kb) })
						})
					}},
				{"ifnoq-beats-redundant", 20, "redundantIfNoQ's FCTs at 16, 64 and 256 KB sum below redundant's",
					func(ps []experiments.FCTPoint) bool {
						var ifNoQ, full time.Duration
						for _, kb := range []int{16, 64, 256} {
							ifNoQ += fct(ps, "redundantIfNoQ", kb)
							full += fct(ps, "redundant", kb)
						}
						return ifNoQ < full
					}},
			}...)},
	{id: "fig10c", title: "redundancy flavors: normalized throughput (Fig. 10c)",
		judge: seeded(func(seed int64) ([]experiments.ThroughputPoint, error) {
			return experiments.RedundancyThroughput(experiments.RedundancySchedulers, seed)
		},
			[]string{"scheduler", "workload", "normalized", "goodput MB/s"},
			func(ps []experiments.ThroughputPoint) [][]cell {
				return rowsOf(ps, func(p experiments.ThroughputPoint) []cell {
					return []cell{text(p.Scheduler), text(p.Workload), num("%.2f", p.Normalized), num("%.2f", p.GoodputBps/1e6)}
				})
			},
			[]claim[[]experiments.ThroughputPoint]{
				{"default-aggregates", 18, "minRTT's bulk throughput is ≥ 1.4× single-path TCP",
					func(ps []experiments.ThroughputPoint) bool { return bulk(ps, "minRTT") >= 1.4 }},
				{"redundant-single-path", 20, "redundant's bulk throughput is ≤ 1.3×, bounded near a single path",
					func(ps []experiments.ThroughputPoint) bool { return bulk(ps, "redundant") <= 1.3 }},
				{"new-flavours-near-max", 18, "opportunisticRedundant and redundantIfNoQ reach ≥ 1.5× in bulk: \"nearly the maximum achievable throughput\"",
					func(ps []experiments.ThroughputPoint) bool {
						return bulk(ps, "opportunisticRedundant") >= 1.5 && bulk(ps, "redundantIfNoQ") >= 1.5
					}},
			}...)},
	{id: "fig12", title: "flow-end compensation vs RTT ratio (Fig. 12)",
		judge: once(func() ([]experiments.CompensationPoint, error) { return experiments.CompensationSweep(fig12Ratios) },
			func() []string {
				header := []string{"rtt ratio"}
				for _, s := range experiments.CompensationSchedulers {
					header = append(header, s+" FCT", s+" ovh")
				}
				return header
			}(),
			func(ps []experiments.CompensationPoint) [][]cell {
				return rowsOf(fig12Ratios, func(ratio float64) []cell {
					row := []cell{text(fmt.Sprintf("%.1f", ratio))}
					for _, s := range experiments.CompensationSchedulers {
						p := compensation(ps, s, ratio)
						row = append(row, msec("%.1f ms", p.MeanFCT), num("%.2fx", p.OverheadVsDefault))
					}
					return row
				})
			},
			[]claim[[]experiments.CompensationPoint]{
				{"default-grows", 1, "minRTT's FCT grows ≥ 1.5× from ratio 1 to 6",
					func(ps []experiments.CompensationPoint) bool { return growth(ps, "minRTT") >= 1.5 }},
				{"compensating-flat", 1, "compensating's FCT grows at most 0.75× as much as minRTT's from ratio 1 to 6",
					func(ps []experiments.CompensationPoint) bool {
						return growth(ps, "compensating") <= growth(ps, "minRTT")*0.75
					}},
				{"compensating-wins-at-6", 1, "compensating finishes before minRTT at ratio 6",
					func(ps []experiments.CompensationPoint) bool {
						return compensation(ps, "compensating", 6).MeanFCT < compensation(ps, "minRTT", 6).MeanFCT
					}},
				{"compensating-costs", 1, "compensating puts more bytes on the wire than minRTT at ratio 1",
					func(ps []experiments.CompensationPoint) bool {
						return compensation(ps, "compensating", 1).OverheadVsDefault > 1.0
					}},
				{"overhead-shrinks", 1, "compensating's overhead is lower at ratio 6 than at ratio 1",
					func(ps []experiments.CompensationPoint) bool {
						return compensation(ps, "compensating", 6).OverheadVsDefault < compensation(ps, "compensating", 1).OverheadVsDefault
					}},
				{"selective-tracks-default", 1, "selectiveCompensation's overhead at ratio 1 is ≤ 1.15×",
					func(ps []experiments.CompensationPoint) bool {
						return compensation(ps, "selectiveCompensation", 1).OverheadVsDefault <= 1.15
					}},
				{"selective-gains-at-6", 1, "selectiveCompensation's FCT at ratio 6 is ≤ 0.9× minRTT's",
					func(ps []experiments.CompensationPoint) bool {
						return float64(compensation(ps, "selectiveCompensation", 6).MeanFCT) <= float64(compensation(ps, "minRTT", 6).MeanFCT)*0.9
					}},
			}...)},
	{id: "fig14", title: "HTTP/2-aware scheduling (Fig. 14)",
		judge: once(func() ([]experiments.HTTP2Point, error) { return experiments.HTTP2Sweep(fig14Delays) },
			[]string{"scheduler", "wifi +delay", "deps ms", "initial ms", "full ms", "lte KB"},
			func(ps []experiments.HTTP2Point) [][]cell {
				return rowsOf(ps, func(p experiments.HTTP2Point) []cell {
					return []cell{text(p.Scheduler), text(fmt.Sprint(p.WiFiExtraDelay)), msec("%.1f", p.DependencyRetrieved), msec("%.1f", p.InitialPage),
						msec("%.1f", p.FullLoad), num("%.1f", float64(p.LTEBytes)/1024)}
				})
			},
			[]claim[[]experiments.HTTP2Point]{
				{"aware-deps-no-later", 1, "at every delay http2Aware retrieves the dependencies no later than minRTT, within 5%",
					func(ps []experiments.HTTP2Point) bool {
						return all(http2(ps), func(p [2]experiments.HTTP2Point) bool {
							return float64(p[1].DependencyRetrieved) <= float64(p[0].DependencyRetrieved)*1.05
						})
					}},
				{"aware-saves-lte", 1, "at every delay http2Aware sends under half minRTT's LTE bytes",
					func(ps []experiments.HTTP2Point) bool {
						return all(http2(ps), func(p [2]experiments.HTTP2Point) bool { return p[1].LTEBytes < p[0].LTEBytes/2 })
					}},
				{"aware-deps-at-80ms", 1, "at +80 ms http2Aware retrieves the dependencies in ≤ 0.7× minRTT's time, avoiding the high-RTT subflow",
					func(ps []experiments.HTTP2Point) bool {
						pairs := http2(ps)
						p := pairs[len(pairs)-1]
						return float64(p[1].DependencyRetrieved) <= 0.7*float64(p[0].DependencyRetrieved)
					}},
				{"aware-initial-unharmed", 0, "at every delay http2Aware loads the initial page no later than minRTT: \"without affecting the initial page load time\"",
					func(ps []experiments.HTTP2Point) bool {
						return all(http2(ps), func(p [2]experiments.HTTP2Point) bool { return p[1].InitialPage <= p[0].InitialPage })
					}},
				{"aware-full-load-bounded", 1, "at every delay http2Aware's full load takes ≤ 3× minRTT's",
					func(ps []experiments.HTTP2Point) bool {
						return all(http2(ps), func(p [2]experiments.HTTP2Point) bool { return p[1].FullLoad <= p[0].FullLoad*3 })
					}},
			}...)},
	{id: "upcall", title: "in-stack execution vs userspace up-call (§4.1)", wall: true,
		judge: once(func() (experiments.UpcallResult, error) { return experiments.UpcallOverhead(100000) },
			[]string{"direct ns/decision", "upcall ns/decision", "factor"},
			func(r experiments.UpcallResult) [][]cell {
				return [][]cell{{num("%.0f", r.DirectNsPerOp), num("%.0f", r.UpcallNsPerOp), num("%.1fx", r.Factor)}}
			})},
	{id: "memory", title: "scheduler memory footprints (§4.3)",
		judge: once(experiments.MemoryFootprints, []string{"scheduler", "program B", "instance B"},
			func(rs []experiments.MemoryResult) [][]cell {
				return rowsOf(rs, func(r experiments.MemoryResult) []cell {
					return []cell{text(r.Scheduler), num("%.0f", float64(r.ProgramBytes)), num("%.0f", float64(r.InstanceBytes))}
				})
			},
			[]claim[[]experiments.MemoryResult]{
				{"programs-kilobytes", 1, "every program takes 1 B to 64 KiB",
					func(rs []experiments.MemoryResult) bool {
						return all(rs, func(r experiments.MemoryResult) bool { return r.ProgramBytes > 0 && r.ProgramBytes <= 64<<10 })
					}},
				{"instances-under-kib", 1, "every instance takes 1 B to 1 KiB",
					func(rs []experiments.MemoryResult) bool {
						return all(rs, func(r experiments.MemoryResult) bool { return r.InstanceBytes > 0 && r.InstanceBytes <= 1024 })
					}},
			}...)},
	{id: "receiver", title: "legacy vs optimized receiver (§4.2)",
		judge: seeded(experiments.ReceiverComparison, []string{"mode", "mean delivery", "fct", "held segs"},
			func(rs []experiments.ReceiverResult) [][]cell {
				return rowsOf(rs, func(r experiments.ReceiverResult) []cell {
					return []cell{text(r.Mode.String()), dur(time.Microsecond, r.MeanDeliveryLatency), dur(time.Microsecond, r.FCT),
						num("%.0f", float64(r.HeldSegments))}
				})
			},
			// rs[0] is the legacy receiver, rs[1] the optimized one.
			[]claim[[]experiments.ReceiverResult]{
				{"legacy-holds", 20, "the legacy receiver holds segments behind subflow gaps",
					func(rs []experiments.ReceiverResult) bool { return rs[0].HeldSegments != 0 }},
				{"optimized-holds-nothing", 20, "the optimized receiver holds nothing at the subflow level",
					func(rs []experiments.ReceiverResult) bool { return rs[1].HeldSegments == 0 }},
				{"optimized-no-later", 20, "the optimized receiver's mean delivery is no later than the legacy one's",
					func(rs []experiments.ReceiverResult) bool {
						return rs[1].MeanDeliveryLatency <= rs[0].MeanDeliveryLatency
					}},
			}...)},
	{id: "handover", title: "WiFi→LTE handover (§5.2)",
		judge: once(func() ([]experiments.HandoverResult, error) {
			return each([]string{"minRTT", "handoverAware"}, experiments.Handover)
		},
			[]string{"scheduler", "interruption", "fct", "completed"},
			func(rs []experiments.HandoverResult) [][]cell {
				return rowsOf(rs, func(r experiments.HandoverResult) []cell {
					return []cell{text(r.Scheduler), dur(time.Millisecond, r.Interruption), dur(time.Millisecond, r.FCT), text(fmt.Sprint(r.Completed))}
				})
			},
			[]claim[[]experiments.HandoverResult]{
				{"both-complete", 1, "both transfers complete",
					func(rs []experiments.HandoverResult) bool { return rs[0].Completed && rs[1].Completed }},
				{"aware-interrupts-less", 1, "handoverAware's delivery interruption is no longer than minRTT's",
					func(rs []experiments.HandoverResult) bool { return rs[1].Interruption <= rs[0].Interruption }},
			}...)},
	{id: "opportunistic", title: "opportunistic retransmission under receive-window blocking (§3.4)",
		judge: once(func() ([]experiments.OpportunisticResult, error) {
			return each([]string{"minRTT", "minRTTOpportunistic"}, experiments.Opportunistic)
		},
			[]string{"scheduler", "fct", "goodput MB/s", "completed"},
			func(rs []experiments.OpportunisticResult) [][]cell {
				return rowsOf(rs, func(r experiments.OpportunisticResult) []cell {
					return []cell{text(r.Scheduler), dur(time.Millisecond, r.FCT), num("%.2f", r.Goodput/1e6), text(fmt.Sprint(r.Completed))}
				})
			},
			[]claim[[]experiments.OpportunisticResult]{
				{"both-complete", 1, "both transfers complete",
					func(rs []experiments.OpportunisticResult) bool { return rs[0].Completed && rs[1].Completed }},
				{"opportunistic-faster", 1, "minRTTOpportunistic finishes before minRTT by re-sending window-blocking packets on the fast subflow",
					func(rs []experiments.OpportunisticResult) bool { return rs[1].FCT < rs[0].FCT }},
			}...)},
	{id: "fairness", title: "shared-bottleneck fairness of the coupled congestion controls (§2.1)",
		judge: seeded(func(seed int64) ([]experiments.FairnessResult, error) {
			return each([]string{"reno", "lia", "olia"}, func(cc string) (experiments.FairnessResult, error) { return experiments.Fairness(cc, seed) })
		},
			[]string{"cc", "mptcp MB/s", "tcp MB/s", "ratio"},
			func(rs []experiments.FairnessResult) [][]cell {
				return rowsOf(rs, func(r experiments.FairnessResult) []cell {
					return []cell{text(r.CC), num("%.2f", r.MPTCPGoodput/1e6), num("%.2f", r.TCPGoodput/1e6), num("%.2f", r.Ratio)}
				})
			},
			// rs holds reno, lia and olia, in that order.
			[]claim[[]experiments.FairnessResult]{
				{"link-utilized", 20, "MPTCP and TCP together deliver ≥ 1.2 MB/s of the 2 MB/s bottleneck under every cc",
					func(rs []experiments.FairnessResult) bool {
						return all(rs, func(r experiments.FairnessResult) bool { return r.MPTCPGoodput+r.TCPGoodput >= 1.2e6 })
					}},
				{"reno-two-shares", 20, "uncoupled reno's ratio is ≥ 1.4: two subflows take about two shares",
					func(rs []experiments.FairnessResult) bool { return rs[0].Ratio >= 1.4 }},
				{"lia-below-reno", 20, "lia's ratio is ≤ 0.8× reno's",
					func(rs []experiments.FairnessResult) bool { return rs[1].Ratio <= rs[0].Ratio*0.8 }},
				{"lia-near-fair", 20, "lia's ratio is ≤ 1.5",
					func(rs []experiments.FairnessResult) bool { return rs[1].Ratio <= 1.5 }},
				{"olia-below-reno", 20, "olia's ratio is ≤ 0.9× reno's",
					func(rs []experiments.FairnessResult) bool { return rs[2].Ratio <= rs[0].Ratio*0.9 }},
			}...)},
	{id: "probing", title: "probing for fresh estimates on idle subflows (Table 2)",
		judge: once(func() ([]experiments.ProbingResult, error) {
			return each([]string{"minRTT", "probingMinRTT"}, experiments.Probing)
		},
			[]string{"scheduler", "mean response", "fast-path share", "responses"},
			func(rs []experiments.ProbingResult) [][]cell {
				return rowsOf(rs, func(r experiments.ProbingResult) []cell {
					return []cell{text(r.Scheduler), dur(time.Millisecond, r.MeanResponse), num("%.0f%%", r.FastPathShare*100), num("%.0f", float64(r.Responses))}
				})
			},
			[]claim[[]experiments.ProbingResult]{
				{"responses-measured", 1, "both schedulers complete measured requests",
					func(rs []experiments.ProbingResult) bool { return rs[0].Responses != 0 && rs[1].Responses != 0 }},
				{"default-stays", 1, "minRTT sends ≤ 20% on the improved path: its estimate is stale",
					func(rs []experiments.ProbingResult) bool { return rs[0].FastPathShare <= 0.2 }},
				{"probing-migrates", 1, "probingMinRTT sends ≥ 50% on the improved path",
					func(rs []experiments.ProbingResult) bool { return rs[1].FastPathShare >= 0.5 }},
				{"probing-faster", 1, "probingMinRTT's mean response beats minRTT's: \"fresh RTT estimates significantly improve the scheduling decision\"",
					func(rs []experiments.ProbingResult) bool { return rs[1].MeanResponse < rs[0].MeanResponse }},
			}...)},
	{id: "targetrtt", title: "target-RTT preference-aware scheduling (§5.4)",
		judge: once(func() ([]experiments.TargetRTTResult, error) {
			return each([]string{"minRTT", "targetRTT"}, experiments.TargetRTT)
		},
			[]string{"scheduler", "mean", "p95", "lte bytes", "responses"},
			func(rs []experiments.TargetRTTResult) [][]cell {
				return rowsOf(rs, func(r experiments.TargetRTTResult) []cell {
					return []cell{text(r.Scheduler), dur(time.Millisecond, r.MeanResponse), dur(time.Millisecond, r.P95Response),
						num("%.0f", float64(r.LTEBytes)), num("%.0f", float64(r.Responses))}
				})
			},
			[]claim[[]experiments.TargetRTTResult]{
				{"responses-measured", 1, "both schedulers complete requests",
					func(rs []experiments.TargetRTTResult) bool { return rs[0].Responses != 0 && rs[1].Responses != 0 }},
				{"targetrtt-cuts-p95", 1, "targetRTT's p95 response beats the default-with-backup's during the RTT spike",
					func(rs []experiments.TargetRTTResult) bool { return rs[1].P95Response < rs[0].P95Response }},
				{"targetrtt-uses-lte", 1, "targetRTT engages LTE during the spike",
					func(rs []experiments.TargetRTTResult) bool { return rs[1].LTEBytes != 0 }},
			}...)},
	{id: "ablations", title: "calling-model ablations: compressed executions (§4.1), TSQ-drain trigger (Fig. 4)",
		judge: once(experiments.Ablations, []string{"design choice", "with fct", "execs", "without fct", "execs"},
			func(rs []experiments.AblationResult) [][]cell {
				return rowsOf(rs, func(r experiments.AblationResult) []cell {
					return []cell{text(r.Choice), dur(time.Microsecond, r.With), num("%.0f", float64(r.WithExecs)),
						dur(time.Microsecond, r.Without), num("%.0f", float64(r.WithoutExecs))}
				})
			},
			claim[[]experiments.AblationResult]{"each-shortens", 1, "switching off either design choice lengthens the transfer",
				func(rs []experiments.AblationResult) bool {
					return all(rs, func(r experiments.AblationResult) bool { return r.With < r.Without })
				}})},
	{id: "chaos", title: "occupancy-aware scheduling through the chaos matrix (beyond the paper)",
		judge: seeded(func(seed int64) ([]chaosRun, error) {
			return each(mptcp.ChaosScenarioNames(), func(scenario string) (chaosRun, error) {
				r := chaosRun{scenario: scenario}
				for _, sched := range []string{"minRTT", "qaware"} {
					s, err := core.Load(sched, schedlib.All[sched], core.BackendVM)
					if err != nil {
						return r, err
					}
					// The error is the soak's conservation verdict.
					res, err := mptcp.RunChaos(mptcp.ChaosScenarios[scenario], seed, func() mptcp.Scheduler { return s })
					if err != nil {
						return r, fmt.Errorf("%s under %s: %w", scenario, sched, err)
					}
					r.fct = append(r.fct, res.FCT)
				}
				return r, nil
			})
		},
			[]string{"scenario", "minRTT FCT", "qaware FCT"},
			func(rs []chaosRun) [][]cell {
				return rowsOf(rs, func(r chaosRun) []cell {
					return []cell{text(r.scenario), dur(time.Millisecond, r.fct[0]), dur(time.Millisecond, r.fct[1])}
				})
			},
			[]claim[[]chaosRun]{
				{"qaware-never-later", 12, "qaware finishes no later than minRTT in every scenario",
					func(rs []chaosRun) bool { return all(rs, func(r chaosRun) bool { return r.fct[1] <= r.fct[0] }) }},
				{"qaware-sooner-when-degraded", 8, "qaware finishes before minRTT where a path degrades (meltdown, sbfdeath)",
					func(rs []chaosRun) bool {
						return all([]string{"meltdown", "sbfdeath"}, func(name string) bool {
							r := find(rs, func(r chaosRun) bool { return r.scenario == name })
							return r.fct[1] < r.fct[0]
						})
					}},
			}...)},
}
