package experiments

import (
	"fmt"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// StreamingVariant selects the scheduler configuration of the
// interactive-streaming scenario (Fig. 1 and Fig. 13).
type StreamingVariant string

// The three configurations compared in the paper.
const (
	// StreamingDefault is today's MinRTT scheduler with both subflows
	// active ("neither the default scheduler ... allows preserving
	// preferences").
	StreamingDefault StreamingVariant = "default"
	// StreamingBackup is MinRTT with the LTE subflow in backup mode
	// ("practically deactivates the subflow").
	StreamingBackup StreamingVariant = "backup"
	// StreamingTAP is the throughput- and preference-aware scheduler
	// of §5.4 with the target bitrate signaled in R1.
	StreamingTAP StreamingVariant = "tap"
)

// StreamingResult is the outcome of one interactive-streaming run.
type StreamingResult struct {
	Variant StreamingVariant
	// WiFiBytes and LTEBytes are wire totals.
	WiFiBytes, LTEBytes int64
	// LowPhaseLTEShare is the LTE share of wire bytes during the
	// 1 MB/s phase — the paper's ~30% observation for MinRTT (Fig. 1).
	LowPhaseLTEShare float64
	// HighPhaseGoodput is the mean delivered rate (bytes/s) during the
	// 4 MB/s phase; the backup variant fails to sustain it.
	HighPhaseGoodput float64
}

// streamDuration and the bitrate switch point of Fig. 1.
const (
	streamDuration   = 16 * time.Second
	bitrateSwitchAt  = 6 * time.Second
	lowRate          = 1 << 20 // 1 MB/s
	highRate         = 4 << 20 // 4 MB/s
	streamTickPeriod = 100 * time.Millisecond
)

// Streaming runs the interactive streaming session of Fig. 1/Fig. 13:
// a 1 MB/s stream that rises to 4 MB/s at t=6 s over fluctuating WiFi
// (~3 MB/s, 10 ms RTT) and LTE (8 MB/s, 40 ms RTT).
func Streaming(variant StreamingVariant) (StreamingResult, error) {
	scheduler := "minRTT"
	lteBackup := false
	switch variant {
	case StreamingDefault:
	case StreamingBackup:
		lteBackup = true
	case StreamingTAP:
		scheduler = "tap"
		lteBackup = true
	default:
		return StreamingResult{}, fmt.Errorf("experiments: unknown streaming variant %q", variant)
	}
	s, err := NewScenario(noDraws, mptcp.Config{}, scheduler, WiFi(), LTE(lteBackup))
	if err != nil {
		return StreamingResult{}, err
	}
	rec := netsim.NewRecorder()
	s.Conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		rec.Record("goodput", at, float64(size))
	})

	// The application pushes stream data every 100 ms and keeps the
	// TAP target register in sync with the bitrate.
	rate := func(at time.Duration) int {
		if at < bitrateSwitchAt {
			return lowRate
		}
		return highRate
	}
	for at := time.Duration(0); at < streamDuration; at += streamTickPeriod {
		at := at
		s.Eng.At(at, func() {
			r := rate(at)
			if variant == StreamingTAP {
				s.Conn.SetRegister(schedlib.RegTarget, int64(r))
			}
			s.Conn.Send(r/int(time.Second/streamTickPeriod), 0)
		})
	}
	// Sample per-subflow wire bytes per tick by deltas.
	var lastWiFi, lastLTE int64
	for at := streamTickPeriod; at <= streamDuration+2*time.Second; at += streamTickPeriod {
		at := at
		s.Eng.At(at, func() {
			w := s.Conn.Subflows()[0].BytesSent
			l := s.Conn.Subflows()[1].BytesSent
			rec.Record("wifiTx", at-1, float64(w-lastWiFi))
			rec.Record("lteTx", at-1, float64(l-lastLTE))
			lastWiFi, lastLTE = w, l
		})
	}
	s.Eng.RunUntil(streamDuration + 2*time.Second)

	res := StreamingResult{
		Variant:   variant,
		WiFiBytes: s.Conn.Subflows()[0].BytesSent,
		LTEBytes:  s.Conn.Subflows()[1].BytesSent,
	}
	// LTE share during the low phase (exclude slow-start warm-up).
	var wifiLow, lteLow float64
	for _, sm := range rec.Series("wifiTx") {
		if sm.At >= time.Second && sm.At < bitrateSwitchAt {
			wifiLow += sm.Value
		}
	}
	for _, sm := range rec.Series("lteTx") {
		if sm.At >= time.Second && sm.At < bitrateSwitchAt {
			lteLow += sm.Value
		}
	}
	if wifiLow+lteLow > 0 {
		res.LowPhaseLTEShare = lteLow / (wifiLow + lteLow)
	}
	// Goodput in the high phase (skip 2 s after the switch for the
	// ramp, stop at stream end).
	var highBytes float64
	highStart := bitrateSwitchAt + 2*time.Second
	for _, sm := range rec.Series("goodput") {
		if sm.At >= highStart && sm.At < streamDuration {
			highBytes += sm.Value
		}
	}
	res.HighPhaseGoodput = highBytes / (streamDuration - highStart).Seconds()
	return res, nil
}

// ---- Handover (§5.2) ----

// HandoverResult measures the WiFi→LTE handover scenario.
type HandoverResult struct {
	Scheduler string
	// Interruption is the longest gap between consecutive in-order
	// deliveries around the handover.
	Interruption time.Duration
	// Completed reports whether the transfer finished.
	Completed bool
	// FCT is the total flow completion time.
	FCT time.Duration
}

// Handover runs a bulk transfer during which the WiFi path collapses
// at t=3 s; the application signals the handover 50 ms later
// (sensor-based prediction, as in the paper's smooth-handover work).
// Compared schedulers: the default MinRTT and the HandoverAware
// scheduler of §5.2.
func Handover(scheduler string) (HandoverResult, error) {
	// The collapse happens early so the bulk transfer spans it.
	wifiDown := 500 * time.Millisecond
	wifi := mptcp.SubflowSpec{Path: netsim.PathConfig{
		Name: "wifi",
		Rate: netsim.SteppedRate(
			netsim.Step{From: 0, Rate: 3e6},
			netsim.Step{From: wifiDown, Rate: 0}, // association lost
		),
		Delay: 5 * time.Millisecond,
	}}
	s, err := NewScenario(noDraws, mptcp.Config{}, scheduler, wifi, LTE(false))
	if err != nil {
		return HandoverResult{}, err
	}
	res := HandoverResult{Scheduler: scheduler}
	var lastDelivery time.Duration
	var maxGap time.Duration
	total := 8 << 20
	delivered := int64(0)
	s.Conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		if at > lastDelivery {
			if gap := at - lastDelivery; gap > maxGap && lastDelivery > 0 {
				maxGap = gap
			}
			lastDelivery = at
		}
		delivered += int64(size)
		if delivered >= int64(total) && res.FCT == 0 {
			res.FCT = at
		}
	})
	s.Eng.After(0, func() { s.Conn.Send(total, 0) })
	s.Eng.At(wifiDown+50*time.Millisecond, func() {
		s.Conn.SetRegister(schedlib.RegHandover, 1)
		s.Conn.SetRegister(schedlib.RegHandoverSbf, 0)
	})
	// The path manager eventually tears the dead subflow down.
	s.Eng.At(wifiDown+2*time.Second, func() { s.Conn.Subflows()[0].Close() })
	s.Eng.RunUntil(30 * time.Second)
	res.Interruption = maxGap
	res.Completed = delivered >= int64(total)
	return res, nil
}
