package experiments

import (
	"fmt"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// FairnessResult measures the shared-bottleneck scenario that motivates
// coupled congestion control (§2.1 of the paper; RFC 6356): an MPTCP
// connection whose two subflows traverse the same bottleneck competes
// with a regular single-path TCP connection.
type FairnessResult struct {
	CC string
	// MPTCPGoodput and TCPGoodput in bytes/s over the measurement
	// window.
	MPTCPGoodput float64
	TCPGoodput   float64
	// Ratio is MPTCP/TCP: ≈1 is fair; uncoupled Reno trends to ≈2
	// (two subflows, two shares).
	Ratio float64
}

// Fairness runs the shared-bottleneck experiment for one
// congestion-control algorithm.
func Fairness(ccName string, seed int64) (FairnessResult, error) {
	var cc mptcp.CongestionControl
	switch ccName {
	case "lia":
		cc = mptcp.LIA{}
	case "olia":
		cc = mptcp.OLIA{}
	case "reno":
		cc = mptcp.Reno{}
	default:
		return FairnessResult{}, fmt.Errorf("experiments: unknown congestion control %q", ccName)
	}
	eng := netsim.NewEngine(seed)
	// The shared NETWORK bottleneck: 2 MB/s, 10 ms one-way, a small
	// drop-tail buffer, so congestion manifests as loss — the coupling
	// signal LIA is designed around. Each subflow reaches it through
	// its own fast access link (the host NIC); the sender's
	// small-queue accounting sees only that access link, like a real
	// host that cannot observe the remote bottleneck queue.
	bottleneck := netsim.NewPath(eng, netsim.PathConfig{
		Name:       "bottleneck",
		Rate:       netsim.ConstantRate(2e6),
		Delay:      10 * time.Millisecond,
		QueueBytes: 64 << 10,
		// RED (dropping from 12 KiB of backlog, up to 15 % at 56 KiB)
		// keeps the drop probability equal across the competing flows —
		// the loss-signal regime RFC 6356's fairness argument assumes;
		// pure drop-tail would synchronize on the fastest grower
		// instead.
		RED: true,
	})
	access := func(name string) mptcp.SubflowSpec {
		return mptcp.SubflowSpec{Path: netsim.PathConfig{
			Name:  name,
			Rate:  netsim.ConstantRate(125e6),
			Delay: time.Millisecond,
			Next:  bottleneck,
		}}
	}
	dial := func(cc mptcp.CongestionControl, paths ...mptcp.SubflowSpec) (*mptcp.Conn, error) {
		conn, err := mptcp.Dial(eng, mptcp.Config{CC: cc}, paths...)
		if err != nil {
			return nil, err
		}
		sched, err := core.Load("minRTT", schedlib.MinRTT, core.BackendVM)
		if err != nil {
			return nil, err
		}
		conn.SetScheduler(sched)
		return conn, nil
	}
	mp, err := dial(cc, access("mp0"), access("mp1"))
	if err != nil {
		return FairnessResult{}, err
	}
	tcp, err := dial(mptcp.Reno{}, access("tcp"))
	if err != nil {
		return FairnessResult{}, err
	}

	var mpBytes, tcpBytes int64
	const warmup = 5 * time.Second
	const duration = 35 * time.Second
	mp.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		if at >= warmup {
			mpBytes += int64(size)
		}
	})
	tcp.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		if at >= warmup {
			tcpBytes += int64(size)
		}
	})
	// Backlogged sources.
	for at := time.Duration(0); at < duration; at += 100 * time.Millisecond {
		eng.At(at, func() {
			if mp.QueuedSegments() < 256 {
				mp.Send(256<<10, 0)
			}
			if tcp.QueuedSegments() < 256 {
				tcp.Send(256<<10, 0)
			}
		})
	}
	eng.RunUntil(duration)

	window := (duration - warmup).Seconds()
	res := FairnessResult{
		CC:           ccName,
		MPTCPGoodput: float64(mpBytes) / window,
		TCPGoodput:   float64(tcpBytes) / window,
	}
	if res.TCPGoodput > 0 {
		res.Ratio = res.MPTCPGoodput / res.TCPGoodput
	}
	return res, nil
}
