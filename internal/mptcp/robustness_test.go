package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// TestBlackoutRTOBackoffCycle drives a subflow into a temporary
// blackout and asserts the RTO state machine end to end: the
// retransmission timeout backs off exponentially while the link is
// dark, the backoff resets once an acknowledgement gets through after
// recovery, and the connection keeps draining through the surviving
// subflow the whole time.
func TestBlackoutRTOBackoffCycle(t *testing.T) {
	eng := netsim.NewEngine(9)
	conn := NewConn(eng, counted(Config{}))
	dark := netsim.NewLink(eng, netsim.PathConfig{
		Name:  "dark",
		Rate:  netsim.ConstantRate(4e6),
		Delay: 5 * time.Millisecond,
		Loss:  netsim.BlackoutLoss{From: 200 * time.Millisecond, Until: 3 * time.Second},
	})
	healthy := netsim.NewLink(eng, netsim.PathConfig{
		Name:  "healthy",
		Rate:  netsim.ConstantRate(2e6),
		Delay: 25 * time.Millisecond,
	})
	darkSbf, err := conn.AddSubflow(SubflowConfig{Name: "dark", Link: dark})
	if err != nil {
		t.Fatal(err)
	}
	healthySbf, err := conn.AddSubflow(SubflowConfig{Name: "healthy", Link: healthy})
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendCompiled))
	chk := NewConservationChecker(conn)

	const total = 2 << 20
	eng.After(0, func() { conn.Send(total, 0) })

	// Mid-blackout the timeout must have backed off at least twice
	// (MinRTO 200 ms: RTO fires around 0.4 s, 0.8 s, 1.6 s, ...).
	var midBackoff int32
	var midRTOs int64
	eng.At(2500*time.Millisecond, func() {
		midBackoff = darkSbf.rtoBackoff
		midRTOs = countsOf(conn).RTOs(darkSbf)
	})
	// Well after recovery the first SACK on the dark subflow must have
	// reset the backoff.
	var lateBackoff int32 = -1
	eng.At(8*time.Second, func() { lateBackoff = darkSbf.rtoBackoff })

	eng.RunUntil(120 * time.Second)

	if midRTOs < 2 {
		t.Errorf("mid-blackout RTOs = %d, want >= 2", midRTOs)
	}
	if midBackoff < 2 {
		t.Errorf("mid-blackout rtoBackoff = %d, want >= 2 (exponential backoff)", midBackoff)
	}
	if lateBackoff != 0 {
		t.Errorf("post-recovery rtoBackoff = %d, want 0 (reset on SACK)", lateBackoff)
	}
	if err := chk.Check(total); err != nil {
		t.Fatalf("conservation across blackout/recovery: %v", err)
	}
	if healthySbf.BytesSent == 0 {
		t.Error("surviving subflow carried no data during the blackout")
	}
	if darkSbf.Closed() {
		t.Error("dark subflow should survive (no path manager attached)")
	}
}
