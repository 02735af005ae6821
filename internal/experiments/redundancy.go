package experiments

import (
	"fmt"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
)

// RedundancySchedulers are the four schedulers compared in Fig. 10.
var RedundancySchedulers = []string{
	"minRTT", "redundant", "opportunisticRedundant", "redundantIfNoQ",
}

// lossyPaths reproduces the Fig. 10b Mininet setup: two subflows with
// 2% loss each, moderately heterogeneous RTTs.
func lossyPaths(lossPct float64) []mptcp.SubflowSpec {
	return []mptcp.SubflowSpec{
		{Path: netsim.PathConfig{Name: "p1", Rate: netsim.ConstantRate(2e6), Delay: 10 * time.Millisecond, Loss: netsim.BernoulliLoss{P: lossPct}}},
		{Path: netsim.PathConfig{Name: "p2", Rate: netsim.ConstantRate(2e6), Delay: 20 * time.Millisecond, Loss: netsim.BernoulliLoss{P: lossPct}}},
	}
}

// FCTPoint is one cell of the Fig. 10b series.
type FCTPoint struct {
	Scheduler string
	FlowKB    int
	MeanFCT   time.Duration
}

// RedundancyFCT reproduces Fig. 10b: average flow completion time vs
// flow size under 2% loss for the default and the three redundant
// schedulers, averaged over runs seeds.
func RedundancyFCT(flowKBs []int, schedulers []string, runs int) ([]FCTPoint, error) {
	var out []FCTPoint
	for _, scheduler := range schedulers {
		for _, kb := range flowKBs {
			var sumFCT time.Duration
			completed := 0
			for run := 0; run < runs; run++ {
				// Uncoupled Reno isolates the scheduling effects: the
				// coupled LIA default would deliberately cap the
				// aggregate at one TCP's throughput on these equal
				// disjoint paths (RFC 6356 goal), drowning the
				// scheduler comparison.
				s, err := NewScenario(int64(run*101+7), mptcp.Config{CC: mptcp.Reno{}}, scheduler, lossyPaths(0.02)...)
				if err != nil {
					return nil, err
				}
				fct, _ := runFlow(s, kb<<10, false, 120*time.Second)
				if fct == 0 {
					continue
				}
				completed++
				sumFCT += fct
			}
			if completed == 0 {
				return nil, fmt.Errorf("experiments: %s/%dKB never completed", scheduler, kb)
			}
			out = append(out, FCTPoint{
				Scheduler: scheduler,
				FlowKB:    kb,
				MeanFCT:   sumFCT / time.Duration(completed),
			})
		}
	}
	return out, nil
}

// ThroughputPoint is one bar of Fig. 10c: goodput normalized to
// single-path TCP on the best path.
type ThroughputPoint struct {
	Scheduler  string
	Workload   string // "bulk" (iPerf) or "bursty"
	Normalized float64
	GoodputBps float64
}

// RedundancyThroughput reproduces Fig. 10c: maximum achievable
// throughput of the redundancy flavors, normalized to single-path TCP,
// for a constantly-backlogged bulk transfer and a bursty flow. The
// environment matches the Fig. 10b Mininet setup (2 subflows, 2%
// loss); the loss keeps congestion windows near the BDP, which is what
// lets OpportunisticRedundant favour fresh packets under backlog.
func RedundancyThroughput(schedulers []string, seed int64) ([]ThroughputPoint, error) {
	paths := lossyPaths(0.02)
	const duration = 10 * time.Second

	goodput := func(scheduler string, pathSubset []mptcp.SubflowSpec, bursty bool) (float64, error) {
		s, err := NewScenario(seed, mptcp.Config{CC: mptcp.Reno{}}, scheduler, pathSubset...)
		if err != nil {
			return 0, err
		}
		var delivered int64
		s.Conn.Receiver().OnDeliver(func(_ int64, size int, _ time.Duration) {
			delivered += int64(size)
		})
		if bursty {
			// 175 KiB bursts every 250 ms (≈0.7 MB/s demand): above a
			// single lossy path's capacity (~0.5 MB/s) but below the
			// aggregate, so Q drains between bursts and mistimed
			// redundancy "just before new data arrives in Q" costs
			// real throughput (§5.1).
			for at := time.Duration(0); at < duration; at += 250 * time.Millisecond {
				at := at
				s.Eng.At(at, func() { s.Conn.Send(175<<10, 0) })
			}
		} else {
			// Backlogged source: top Q up every 50 ms.
			for at := time.Duration(0); at < duration; at += 50 * time.Millisecond {
				s.Eng.At(at, func() {
					if s.Conn.QueuedSegments() < 512 {
						s.Conn.Send(512<<10, 0)
					}
				})
			}
		}
		s.Eng.RunUntil(duration)
		return float64(delivered) / duration.Seconds(), nil
	}

	// Single-path TCP baseline: the best single path with the default
	// scheduler.
	var singleBest float64
	for _, p := range paths {
		g, err := goodput("minRTT", []mptcp.SubflowSpec{p}, false)
		if err != nil {
			return nil, err
		}
		if g > singleBest {
			singleBest = g
		}
	}
	var out []ThroughputPoint
	for _, scheduler := range schedulers {
		for _, workload := range []string{"bulk", "bursty"} {
			g, err := goodput(scheduler, paths, workload == "bursty")
			if err != nil {
				return nil, err
			}
			out = append(out, ThroughputPoint{
				Scheduler:  scheduler,
				Workload:   workload,
				Normalized: g / singleBest,
				GoodputBps: g,
			})
		}
	}
	return out, nil
}
