package experiments

import (
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
)

// ProbingResult measures the probing row of the design-space table
// (Table 2: "Timely RTT/capacity estimates — probe subflows of
// interest"; §5: "As thin flows typically do not use all subflows,
// fresh RTT estimates significantly improve the scheduling decision in
// dynamic environments").
type ProbingResult struct {
	Scheduler string
	// MeanResponse is the mean request latency after the idle path
	// silently became the better one.
	MeanResponse time.Duration
	// FastPathShare is the post-change share of data packets carried
	// by the path that is actually faster now.
	FastPathShare float64
	Responses     int
}

// Probing runs a thin request/response flow over two paths. Path A is
// a constant 20 ms RTT and wins initially; path B starts slower
// (30 ms RTT at handshake time) but silently improves to 4 ms RTT at
// t = 2 s. A thin flow never exercises B, so the default scheduler's
// estimate for it stays frozen at 30 ms and every request keeps going
// over A; the probing scheduler refreshes B's estimate with occasional
// redundant probes and migrates.
func Probing(scheduler string) (ProbingResult, error) {
	const improveAt = 2 * time.Second
	pathBDelay := func(at time.Duration) time.Duration {
		if at >= improveAt {
			return 2 * time.Millisecond
		}
		return 15 * time.Millisecond
	}
	paths := []mptcp.SubflowSpec{
		{Path: netsim.PathConfig{Name: "a", Rate: netsim.ConstantRate(4e6), Delay: 10 * time.Millisecond}},
		{Path: netsim.PathConfig{Name: "b", Rate: netsim.ConstantRate(4e6), DelayFn: pathBDelay}},
	}
	s, err := NewScenario(noDraws, mptcp.Config{}, scheduler, paths...)
	if err != nil {
		return ProbingResult{}, err
	}
	res := ProbingResult{Scheduler: scheduler}

	const reqSize = 2 * 1460
	const measureFrom = improveAt + time.Second
	type pending struct {
		end     int64
		started time.Duration
	}
	var reqs []pending
	var delivered int64
	var latencies []time.Duration
	s.Conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		delivered += int64(size)
		for len(reqs) > 0 && delivered >= reqs[0].end {
			if reqs[0].started >= measureFrom {
				latencies = append(latencies, at-reqs[0].started)
			}
			reqs = reqs[1:]
		}
	})
	var sent int64
	for at := 500 * time.Millisecond; at < 10*time.Second; at += 250 * time.Millisecond {
		at := at
		s.Eng.At(at, func() {
			sent += reqSize
			reqs = append(reqs, pending{end: sent, started: at})
			s.Conn.Send(reqSize, 0)
		})
	}
	var aBase, bBase int64
	s.Eng.At(measureFrom, func() {
		aBase = s.Conn.Subflows()[0].PktsSent
		bBase = s.Conn.Subflows()[1].PktsSent
	})
	s.Eng.RunUntil(30 * time.Second)

	aPkts := s.Conn.Subflows()[0].PktsSent - aBase
	bPkts := s.Conn.Subflows()[1].PktsSent - bBase
	if aPkts+bPkts > 0 {
		res.FastPathShare = float64(bPkts) / float64(aPkts+bPkts)
	}
	res.Responses = len(latencies)
	if len(latencies) > 0 {
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		res.MeanResponse = sum / time.Duration(len(latencies))
	}
	return res, nil
}
