package experiments

import (
	"fmt"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// CompensationSchedulers are the three schedulers of Fig. 12.
var CompensationSchedulers = []string{"minRTT", "compensating", "selectiveCompensation"}

// CompensationPoint is one cell of the Fig. 12 sweep.
type CompensationPoint struct {
	Scheduler string
	RTTRatio  float64
	MeanFCT   time.Duration
	// OverheadVsDefault is wire bytes normalized to the default
	// scheduler's wire bytes at the same ratio (Fig. 12 middle).
	OverheadVsDefault float64
	wireBytes         float64
}

// CompensationSweep reproduces Fig. 12: short flows (24 KiB) over two
// subflows whose RTT ratio is swept; the application signals the end
// of flow, enabling the Compensating schedulers to retransmit
// still-in-flight packets across subflows. The paths are lossless at a
// constant rate, so one flow per cell is the whole measurement.
func CompensationSweep(ratios []float64) ([]CompensationPoint, error) {
	// High path rates and a flow on the order of the aggregate initial
	// congestion window keep the short flow RTT-dominated — Fig. 11 is
	// about "the end of a short flow", where the last in-flight
	// packets on the slow subflow dominate the FCT.
	const flowSize = 24 << 10
	const fastOneWay = 10 * time.Millisecond

	var out []CompensationPoint
	for _, scheduler := range CompensationSchedulers {
		for _, ratio := range ratios {
			paths := []mptcp.SubflowSpec{
				{Path: netsim.PathConfig{Name: "fast", Rate: netsim.ConstantRate(8e6), Delay: fastOneWay}},
				{Path: netsim.PathConfig{Name: "slow", Rate: netsim.ConstantRate(8e6), Delay: time.Duration(float64(fastOneWay) * ratio)}},
			}
			s, err := NewScenario(noDraws, mptcp.Config{}, scheduler, paths...)
			if err != nil {
				return nil, err
			}
			s.Conn.SetRegister(schedlib.RegCompRatio, 20) // selective threshold: ratio 2
			fct, wire := runFlow(s, flowSize, true, 60*time.Second)
			if fct == 0 {
				return nil, fmt.Errorf("experiments: %s at ratio %.1f never completed", scheduler, ratio)
			}
			out = append(out, CompensationPoint{
				Scheduler: scheduler,
				RTTRatio:  ratio,
				MeanFCT:   fct,
				wireBytes: float64(wire),
			})
		}
	}
	// Normalize overhead to the default scheduler per ratio.
	defaultWire := map[float64]float64{}
	for _, p := range out {
		if p.Scheduler == "minRTT" {
			defaultWire[p.RTTRatio] = p.wireBytes
		}
	}
	for i := range out {
		if base := defaultWire[out[i].RTTRatio]; base > 0 {
			out[i].OverheadVsDefault = out[i].wireBytes / base
		}
	}
	return out, nil
}
