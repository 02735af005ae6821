package mptcp

// OLIA is the Opportunistic Linked-Increases Algorithm (Khalili et al.,
// "MPTCP is not Pareto-optimal", CoNEXT 2012 — reference [28] of the
// paper). It fixes LIA's non-Pareto-optimality by steering window
// growth toward the currently best paths while keeping the aggregate
// TCP-friendly.
//
// Increase per ACK on path r:
//
//	w_r/rtt_r² / (Σ_p w_p/rtt_p)² + α_r/w_r
//
// where α_r shifts capacity toward best paths with small windows:
// collected paths (best by inter-loss delivery, window not maximal)
// get +1/(n·|collected|); maximal-window paths give up
// -1/(n·|maxW|) when collected paths exist; everything else gets 0.
//
// Inter-loss delivery l_r is tracked per subflow as
// max(bytes since last loss, bytes in the previous loss interval).
type OLIA struct{}

// Name returns "olia".
func (OLIA) Name() string { return "olia" }

// oliaState lives on the subflow (zero value ready).
type oliaState struct {
	// sinceLoss is bytes acked since the last loss event (l1).
	sinceLoss int64
	// prevInterval is the bytes acked in the previous inter-loss
	// interval (l2).
	prevInterval int64
}

// interLoss is OLIA's l_r = max(l1, l2), a proxy for the path's
// achievable delivery between losses.
func (st *oliaState) interLoss() int64 {
	if st.sinceLoss > st.prevInterval {
		return st.sinceLoss
	}
	return st.prevInterval
}

// oliaMetric is l_r² / rtt_r, which OLIA's best paths maximize.
func oliaMetric(s *Subflow) float64 {
	l := float64(s.olia.interLoss())
	return l * l / rttSeconds(s)
}

// OnAck applies slow start below ssthresh and the OLIA coupled
// increase in congestion avoidance.
//
//progmp:hotpath
func (o OLIA) OnAck(conn *Conn, sbf *Subflow) {
	sbf.olia.sinceLoss += mss
	if !cwndLimited(sbf) {
		return
	}
	if sbf.cwnd < sbf.ssthresh {
		sbf.cwnd++
		return
	}
	// Σ_p w_p/rtt_p over the usable paths.
	var denom float64
	for _, p := range conn.subflows {
		if p.usable() {
			denom += p.cwnd / rttSeconds(p)
		}
	}
	if denom <= 0 {
		return
	}
	rtt := rttSeconds(sbf)
	inc := (sbf.cwnd / (rtt * rtt)) / (denom * denom)
	inc += o.alpha(conn, sbf) / sbf.cwnd
	sbf.cwnd += inc
	if sbf.cwnd < minCwnd {
		sbf.cwnd = minCwnd
	}
}

// alpha computes OLIA's α_r over the usable paths.
func (OLIA) alpha(conn *Conn, sbf *Subflow) float64 {
	// n paths; the best maximize oliaMetric, the max-window ones cwnd.
	var n, bestMetric, maxW float64
	for _, p := range conn.subflows {
		if p.usable() {
			n++
			bestMetric = max(bestMetric, oliaMetric(p))
			maxW = max(maxW, p.cwnd)
		}
	}
	if n <= 1 {
		return 0
	}
	isBest := oliaMetric(sbf) >= bestMetric*0.999
	isMaxW := sbf.cwnd >= maxW*0.999
	// Collected: best paths whose window is not maximal.
	var collected, maxWCount float64
	for _, p := range conn.subflows {
		if !p.usable() {
			continue
		}
		pMaxW := p.cwnd >= maxW*0.999
		if !pMaxW && oliaMetric(p) >= bestMetric*0.999 {
			collected++
		}
		if pMaxW {
			maxWCount++
		}
	}
	switch {
	case collected > 0 && isBest && !isMaxW:
		return 1 / (n * collected)
	case collected > 0 && isMaxW:
		return -1 / (n * maxWCount)
	default:
		return 0
	}
}

// OnLoss halves the window and rolls the inter-loss interval.
//
//progmp:hotpath
func (OLIA) OnLoss(conn *Conn, sbf *Subflow) {
	sbf.olia.prevInterval = sbf.olia.sinceLoss
	sbf.olia.sinceLoss = 0
	Reno{}.OnLoss(conn, sbf)
}

// OnRTO collapses the window and rolls the inter-loss interval.
//
//progmp:hotpath
func (OLIA) OnRTO(conn *Conn, sbf *Subflow) {
	sbf.olia.prevInterval = sbf.olia.sinceLoss
	sbf.olia.sinceLoss = 0
	Reno{}.OnRTO(conn, sbf)
}

// rttSeconds returns a floor-guarded SRTT in seconds.
func rttSeconds(s *Subflow) float64 {
	rtt := s.srtt.Seconds()
	if rtt <= 0 {
		return 0.001
	}
	return rtt
}

var _ CongestionControl = OLIA{}
