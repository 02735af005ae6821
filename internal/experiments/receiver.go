package experiments

import (
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
)

// ReceiverResult compares the legacy and optimized receivers (§4.2).
type ReceiverResult struct {
	Mode mptcp.ReceiverMode
	// MeanDeliveryLatency is the average time from flow start to
	// in-order delivery, weighted per segment.
	MeanDeliveryLatency time.Duration
	// FCT is when the last byte was delivered.
	FCT time.Duration
	// HeldSegments counts segments the legacy two-level queueing
	// buffered behind subflow gaps (always 0 for optimized).
	HeldSegments int64
}

// ReceiverComparison reproduces the §4.2 claim: for loss and
// out-of-order patterns across subflows, the optimized receiver pushes
// in-order data to the application strictly no later than the legacy
// receiver. The default scheduler's cross-subflow reinjection creates
// the decisive pattern: a hole on one subflow is filled via the other,
// but the legacy receiver still withholds the first subflow's
// subsequent segments until its own retransmission lands.
func ReceiverComparison(seed int64) ([]ReceiverResult, error) {
	const runs = 8
	var out []ReceiverResult
	for _, mode := range []mptcp.ReceiverMode{mptcp.ReceiverLegacy, mptcp.ReceiverOptimized} {
		var meanSum, fctSum time.Duration
		var held int64
		for run := int64(0); run < runs; run++ {
			s, err := NewScenario(seed+run*131, mptcp.Config{ReceiverMode: mode}, "minRTT",
				mptcp.SubflowSpec{Path: netsim.PathConfig{Name: "p1", Rate: netsim.ConstantRate(2e6), Delay: 10 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.03}}},
				mptcp.SubflowSpec{Path: netsim.PathConfig{Name: "p2", Rate: netsim.ConstantRate(2e6), Delay: 25 * time.Millisecond, Loss: netsim.BernoulliLoss{P: 0.03}}},
			)
			if err != nil {
				return nil, err
			}
			var latencySum time.Duration
			var segments int64
			var last time.Duration
			s.Conn.Receiver().OnDeliver(func(_ int64, _ int, at time.Duration) {
				latencySum += at
				segments++
				last = at
			})
			s.Eng.After(0, func() { s.Conn.Send(256<<10, 0) })
			s.Eng.RunUntil(120 * time.Second)
			if segments > 0 {
				meanSum += latencySum / time.Duration(segments)
			}
			fctSum += last
			held += s.Conn.Receiver().HeldByLegacy
		}
		out = append(out, ReceiverResult{
			Mode:                mode,
			MeanDeliveryLatency: meanSum / runs,
			FCT:                 fctSum / runs,
			HeldSegments:        held / runs,
		})
	}
	return out, nil
}
