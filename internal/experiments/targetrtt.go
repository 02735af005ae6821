package experiments

import (
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// TargetRTTResult summarizes the §5.4 target-RTT scenario.
type TargetRTTResult struct {
	Scheduler string
	// MeanResponse and P95Response are request/response latencies.
	MeanResponse time.Duration
	P95Response  time.Duration
	// LTEBytes is the non-preferred subflow usage.
	LTEBytes int64
	// Responses completed.
	Responses int
}

// TargetRTT reproduces the §5.4 target-RTT evaluation: interactive
// request/response traffic (a voice-assistant pattern) over WiFi whose
// RTT spikes far above the tolerable bound for a period — the
// situation the [13] measurement study found in ~15% of samples. The
// TargetRTT scheduler (bound in R1) keeps latency low by selectively
// using the non-preferred LTE subflow during the spike; the default
// scheduler with LTE in backup mode rides out the spike on WiFi.
func TargetRTT(scheduler string) (TargetRTTResult, error) {
	// WiFi RTT: 20 ms normally, 200 ms during [2 s, 6 s).
	wifiDelay := func(at time.Duration) time.Duration {
		if at >= 2*time.Second && at < 6*time.Second {
			return 100 * time.Millisecond
		}
		return 10 * time.Millisecond
	}
	paths := []mptcp.SubflowSpec{
		{Path: netsim.PathConfig{Name: "wifi", Rate: netsim.ConstantRate(3e6), DelayFn: wifiDelay}},
		{Path: netsim.PathConfig{Name: "lte", Rate: netsim.ConstantRate(6e6), Delay: 20 * time.Millisecond}, Backup: true},
	}
	s, err := NewScenario(noDraws, mptcp.Config{}, scheduler, paths...)
	if err != nil {
		return TargetRTTResult{}, err
	}
	s.Conn.SetRegister(schedlib.RegTarget, 50000) // 50 ms tolerable RTT

	rec := netsim.NewRecorder()
	const reqSize = 8 << 10
	var delivered int64
	type pending struct {
		end     int64
		started time.Duration
	}
	var reqs []pending
	s.Conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		delivered += int64(size)
		for len(reqs) > 0 && delivered >= reqs[0].end {
			rec.Record("response", at, (at-reqs[0].started).Seconds()*1e6)
			reqs = reqs[1:]
		}
	})
	var sent int64
	for at := 100 * time.Millisecond; at < 8*time.Second; at += 200 * time.Millisecond {
		at := at
		s.Eng.At(at, func() {
			sent += reqSize
			reqs = append(reqs, pending{end: sent, started: at})
			s.Conn.Send(reqSize, 0)
		})
	}
	s.Eng.RunUntil(30 * time.Second)
	res := TargetRTTResult{
		Scheduler:    scheduler,
		MeanResponse: time.Duration(rec.Mean("response")) * time.Microsecond,
		P95Response:  time.Duration(rec.Percentile("response", 0.95)) * time.Microsecond,
		LTEBytes:     s.Conn.Subflows()[1].BytesSent,
		Responses:    len(rec.Series("response")),
	}
	return res, nil
}
