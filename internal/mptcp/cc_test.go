package mptcp

import (
	"testing"
	"time"
)

// ccConn builds a connection skeleton with n established subflows for
// unit-testing congestion-control arithmetic without a network.
func ccConn(n int) *Conn {
	c := &Conn{}
	for i := 0; i < n; i++ {
		s := &Subflow{
			id:          i,
			conn:        c,
			established: true,
			cwnd:        10,
			ssthresh:    5, // force congestion avoidance
			srtt:        20 * time.Millisecond,
			nOut:        10, // the window looks fully used, so cwnd validation passes
		}
		c.subflows = append(c.subflows, s)
	}
	return c
}

func TestRenoSlowStartAndCA(t *testing.T) {
	c := ccConn(1)
	s := c.subflows[0]
	s.ssthresh = 100 // slow start
	before := s.cwnd
	Reno{}.OnAck(c, s)
	if s.cwnd != before+1 {
		t.Errorf("slow start: cwnd %v -> %v, want +1", before, s.cwnd)
	}
	s.ssthresh = 5 // congestion avoidance
	before = s.cwnd
	Reno{}.OnAck(c, s)
	want := before + 1/before
	if s.cwnd != want {
		t.Errorf("CA: cwnd = %v, want %v", s.cwnd, want)
	}
}

func TestRenoLossAndRTO(t *testing.T) {
	c := ccConn(1)
	s := c.subflows[0]
	s.cwnd = 20
	Reno{}.OnLoss(c, s)
	if s.cwnd != 10 || s.ssthresh != 10 {
		t.Errorf("after loss: cwnd=%v ssthresh=%v, want 10/10", s.cwnd, s.ssthresh)
	}
	Reno{}.OnRTO(c, s)
	if s.cwnd != 1 {
		t.Errorf("after RTO: cwnd=%v, want 1", s.cwnd)
	}
	// Floor.
	s.cwnd = 3
	Reno{}.OnLoss(c, s)
	if s.ssthresh < minCwnd {
		t.Errorf("ssthresh %v below floor", s.ssthresh)
	}
}

func TestCwndValidationBlocksIdleGrowth(t *testing.T) {
	c := ccConn(1)
	s := c.subflows[0]
	s.nOut = 2 // window mostly unused
	before := s.cwnd
	Reno{}.OnAck(c, s)
	if s.cwnd != before {
		t.Errorf("app-limited flow grew cwnd %v -> %v", before, s.cwnd)
	}
	LIA{}.OnAck(c, s)
	if s.cwnd != before {
		t.Errorf("LIA grew an app-limited window")
	}
	OLIA{}.OnAck(c, s)
	if s.cwnd != before {
		t.Errorf("OLIA grew an app-limited window")
	}
}

func TestLIACoupledIncreaseBounded(t *testing.T) {
	c := ccConn(2)
	s := c.subflows[0]
	before := s.cwnd
	LIA{}.OnAck(c, s)
	liaInc := s.cwnd - before
	if liaInc <= 0 {
		t.Fatalf("LIA increase = %v, want > 0", liaInc)
	}
	// The coupled increase never exceeds uncoupled Reno's 1/cwnd.
	if liaInc > 1/before {
		t.Errorf("LIA increase %v exceeds Reno's %v", liaInc, 1/before)
	}
}

func TestLIAAlphaEqualPaths(t *testing.T) {
	c := ccConn(2)
	// Equal windows and RTTs: alpha = total·(c/r²)/(2c/r)² = 1/2.
	got := LIA{}.alpha(c)
	if got < 0.49 || got > 0.51 {
		t.Errorf("alpha = %v, want 0.5 for symmetric paths", got)
	}
}

func TestOLIAShiftsTowardBestPath(t *testing.T) {
	c := ccConn(2)
	good, bad := c.subflows[0], c.subflows[1]
	// The good path delivers much more between losses but has the
	// smaller window: it must receive a positive alpha; the
	// max-window path a negative one.
	good.olia.sinceLoss = 1 << 20
	good.cwnd = 8
	bad.olia.sinceLoss = 1 << 10
	bad.cwnd = 16
	aGood := OLIA{}.alpha(c, good)
	aBad := OLIA{}.alpha(c, bad)
	if aGood <= 0 {
		t.Errorf("alpha(good) = %v, want positive", aGood)
	}
	if aBad >= 0 {
		t.Errorf("alpha(bad) = %v, want negative", aBad)
	}
}

func TestOLIAInterLossTracking(t *testing.T) {
	c := ccConn(1)
	s := c.subflows[0]
	s.olia.sinceLoss = 5000
	OLIA{}.OnLoss(c, s)
	if s.olia.prevInterval != 5000 || s.olia.sinceLoss != 0 {
		t.Errorf("inter-loss interval not rolled: %+v", s.olia)
	}
	if s.olia.interLoss() != 5000 {
		t.Errorf("interLoss = %d, want the previous interval", s.olia.interLoss())
	}
	OLIA{}.OnAck(c, s)
	if s.olia.sinceLoss != int64(mss) {
		t.Errorf("sinceLoss = %d, want one MSS", s.olia.sinceLoss)
	}
}

func TestOLIASinglePathBehavesLikeTCP(t *testing.T) {
	c := ccConn(1)
	s := c.subflows[0]
	before := s.cwnd
	OLIA{}.OnAck(c, s)
	inc := s.cwnd - before
	// Single path: alpha = 0 and the coupled term reduces to
	// w/rtt²/(w/rtt)² = 1/w.
	if inc < 0.9/before || inc > 1.1/before {
		t.Errorf("single-path OLIA increase %v, want ≈ 1/w = %v", inc, 1/before)
	}
}

func TestCCNames(t *testing.T) {
	if (Reno{}).Name() != "reno" || (LIA{}).Name() != "lia" || (OLIA{}).Name() != "olia" {
		t.Error("congestion control names wrong")
	}
}
