package mptcp

// CongestionControl is the per-connection congestion-control block
// (§2.1). Window state lives on the subflows; the algorithm decides
// increase and decrease. Implementations receive the connection so
// coupled algorithms (LIA) can observe all subflows.
type CongestionControl interface {
	// Name identifies the algorithm.
	Name() string
	// OnAck is called for every newly acknowledged segment on sbf.
	OnAck(conn *Conn, sbf *Subflow)
	// OnLoss is called once per loss-recovery episode on sbf (fast
	// retransmit): multiplicative decrease.
	OnLoss(conn *Conn, sbf *Subflow)
	// OnRTO is called on a retransmission timeout on sbf.
	OnRTO(conn *Conn, sbf *Subflow)
}

// minCwnd is the floor for congestion windows in segments.
const minCwnd = 2

// cwndLimited implements congestion-window validation (RFC 2861): an
// application-limited sender whose window is far from full must not
// grow it further, or an idle-then-bursty flow would accumulate an
// arbitrarily large, never-validated window. It runs after the ACKed
// segment left the send window, so that segment is counted back.
func cwndLimited(sbf *Subflow) bool {
	return float64(sbf.nOut)+1 >= sbf.cwnd-1
}

// Reno is uncoupled per-subflow NewReno: each subflow behaves like an
// independent TCP connection.
type Reno struct{}

// Name returns "reno".
func (Reno) Name() string { return "reno" }

// OnAck grows the window: slow start below ssthresh, then congestion
// avoidance (+1 segment per window). Growth only happens while the
// window is actually used (cwnd validation).
//
//progmp:hotpath
func (Reno) OnAck(_ *Conn, sbf *Subflow) {
	if !cwndLimited(sbf) {
		return
	}
	if sbf.cwnd < sbf.ssthresh {
		sbf.cwnd++
	} else {
		sbf.cwnd += 1 / sbf.cwnd
	}
}

// OnLoss halves the window.
//
//progmp:hotpath
func (Reno) OnLoss(_ *Conn, sbf *Subflow) {
	sbf.ssthresh = sbf.cwnd / 2
	if sbf.ssthresh < minCwnd {
		sbf.ssthresh = minCwnd
	}
	sbf.cwnd = sbf.ssthresh
}

// OnRTO collapses the window to one segment.
//
//progmp:hotpath
func (Reno) OnRTO(_ *Conn, sbf *Subflow) {
	sbf.ssthresh = sbf.cwnd / 2
	if sbf.ssthresh < minCwnd {
		sbf.ssthresh = minCwnd
	}
	sbf.cwnd = 1
}

// LIA is the coupled Linked-Increases Algorithm of RFC 6356, the MPTCP
// default: the aggregate takes no more capacity on a shared bottleneck
// than a single TCP flow, while still using the best paths.
type LIA struct{}

// Name returns "lia".
func (LIA) Name() string { return "lia" }

// alpha computes the RFC 6356 aggressiveness factor:
//
//	alpha = cwnd_total * max_i(cwnd_i / rtt_i²) / (Σ_i cwnd_i / rtt_i)²
func (LIA) alpha(conn *Conn) float64 {
	var total, maxTerm, sumTerm float64
	for _, s := range conn.subflows {
		if !s.usable() {
			continue
		}
		rtt := rttSeconds(s)
		total += s.cwnd
		if t := s.cwnd / (rtt * rtt); t > maxTerm {
			maxTerm = t
		}
		sumTerm += s.cwnd / rtt
	}
	if sumTerm == 0 {
		return 1
	}
	return total * maxTerm / (sumTerm * sumTerm)
}

// OnAck applies slow start below ssthresh and the coupled increase
// min(alpha/cwnd_total, 1/cwnd_i) in congestion avoidance, gated by
// cwnd validation like Reno.
//
//progmp:hotpath
func (l LIA) OnAck(conn *Conn, sbf *Subflow) {
	if !cwndLimited(sbf) {
		return
	}
	if sbf.cwnd < sbf.ssthresh {
		sbf.cwnd++
		return
	}
	var total float64
	for _, s := range conn.subflows {
		if s.usable() {
			total += s.cwnd
		}
	}
	if total <= 0 {
		total = sbf.cwnd
	}
	inc := l.alpha(conn) / total
	if solo := 1 / sbf.cwnd; inc > solo {
		inc = solo
	}
	sbf.cwnd += inc
}

// OnLoss halves the subflow window (decrease is uncoupled in LIA).
//
//progmp:hotpath
func (LIA) OnLoss(conn *Conn, sbf *Subflow) { Reno{}.OnLoss(conn, sbf) }

// OnRTO collapses the subflow window.
//
//progmp:hotpath
func (LIA) OnRTO(conn *Conn, sbf *Subflow) { Reno{}.OnRTO(conn, sbf) }

// Compile-time interface checks.
var (
	_ CongestionControl = Reno{}
	_ CongestionControl = LIA{}
)
