package experiments

import (
	"fmt"
	"time"

	"progmp/internal/http2sim"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
)

// HTTP2Point is one cell of the Fig. 14 sweep.
type HTTP2Point struct {
	Scheduler string
	// WiFiExtraDelay is the systematic delay added to the WiFi path
	// ("to evaluate the impact of the RTT ratio, we systematically
	// increased packet delays for the WiFi interface").
	WiFiExtraDelay time.Duration
	// DependencyRetrieved, InitialPage, FullLoad per http2sim.Metrics.
	DependencyRetrieved time.Duration
	InitialPage         time.Duration
	FullLoad            time.Duration
	// LTEBytes is the metered-subflow usage.
	LTEBytes int64
}

// HTTP2Schedulers are the two configurations of Fig. 14: today's
// default scheduler and the HTTP/2-aware scheduler.
var HTTP2Schedulers = []string{"minRTT", "http2Aware"}

// HTTP2Sweep reproduces Fig. 14: a page load over WiFi+LTE while the
// WiFi delay is swept, comparing the default scheduler against the
// HTTP/2-aware scheduler for dependency retrieval time, initial page
// time and metered LTE usage.
func HTTP2Sweep(extraDelays []time.Duration) ([]HTTP2Point, error) {
	var out []HTTP2Point
	page := http2sim.DefaultPage()
	for _, scheduler := range HTTP2Schedulers {
		for _, extra := range extraDelays {
			paths := []mptcp.SubflowSpec{
				{Path: netsim.PathConfig{Name: "wifi", Rate: netsim.ConstantRate(3e6), Delay: 5*time.Millisecond + extra/2}},
				// The preference flag is consumed only by the
				// preference-aware scheduler; the default baseline
				// runs with both subflows active.
				{Path: netsim.PathConfig{Name: "lte", Rate: netsim.ConstantRate(6e6), Delay: 20 * time.Millisecond}, Backup: scheduler != "minRTT"},
			}
			s, err := NewScenario(noDraws, mptcp.Config{}, scheduler, paths...)
			if err != nil {
				return nil, err
			}
			browser := http2sim.NewBrowser(s.Conn, page)
			// The request goes out on a warm connection (both
			// handshakes done); load times are relative to it.
			s.Eng.At(flowWarmup, func() { http2sim.Server{Page: page}.Respond(s.Conn) })
			s.Eng.RunUntil(flowWarmup + 60*time.Second)
			m := browser.Metrics()
			if !m.Complete {
				return nil, fmt.Errorf("experiments: %s at +%v did not finish the page load", scheduler, extra)
			}
			out = append(out, HTTP2Point{
				Scheduler:           scheduler,
				WiFiExtraDelay:      extra,
				DependencyRetrieved: m.DependencyRetrieved - flowWarmup,
				InitialPage:         m.InitialPage - flowWarmup,
				FullLoad:            m.FullLoad - flowWarmup,
				LTEBytes:            s.Conn.Subflows()[1].BytesSent,
			})
		}
	}
	return out, nil
}
