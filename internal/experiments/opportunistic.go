package experiments

import (
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
)

// OpportunisticResult measures the opportunistic-retransmission
// feature of the default scheduler (§3.4): when the receive window is
// blocked, packets stuck on a slower subflow are retransmitted on a
// faster one to unblock the meta connection.
type OpportunisticResult struct {
	Scheduler string
	// Goodput over the transfer (bytes/s).
	Goodput float64
	// FCT of the transfer.
	FCT       time.Duration
	Completed bool
}

// Opportunistic runs a bulk transfer through a small receive buffer
// over strongly heterogeneous paths. Packets scheduled onto the slow
// subflow keep the (tight) meta window occupied for a long time;
// without opportunistic retransmission the fast subflow starves on
// window-blocked data, with it the blocking packets are duplicated
// onto the fast path.
func Opportunistic(scheduler string) (OpportunisticResult, error) {
	paths := []mptcp.SubflowSpec{
		{Path: netsim.PathConfig{Name: "fast", Rate: netsim.ConstantRate(4e6), Delay: 5 * time.Millisecond}},
		{Path: netsim.PathConfig{Name: "slow", Rate: netsim.ConstantRate(4e6), Delay: 120 * time.Millisecond}},
	}
	// 32 KiB receive buffer ≈ 22 segments: far below the slow path's
	// bandwidth-delay product, so window blocking dominates.
	s, err := NewScenario(noDraws, mptcp.Config{RcvBuf: 32 << 10}, scheduler, paths...)
	if err != nil {
		return OpportunisticResult{}, err
	}
	res := OpportunisticResult{Scheduler: scheduler}
	const total = 1 << 20
	var delivered int64
	s.Conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		delivered += int64(size)
		if delivered >= total && res.FCT == 0 {
			res.FCT = at - flowWarmup
		}
	})
	s.Eng.At(flowWarmup, func() { s.Conn.Send(total, 0) })
	s.Eng.RunUntil(flowWarmup + 120*time.Second)
	res.Completed = delivered >= total
	if res.FCT > 0 {
		res.Goodput = float64(total) / res.FCT.Seconds()
	}
	return res, nil
}
