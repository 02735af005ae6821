package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// TestPathManagerClosesDeadSubflow: a subflow whose path goes silent is
// closed 3.0–3.5 s after its last acknowledgement progress (a 3 s limit
// checked every 500 ms), wherever in the check period the path dies,
// and the transfer completes on the healthy subflow.
func TestPathManagerClosesDeadSubflow(t *testing.T) {
	for _, from := range []time.Duration{
		200 * time.Millisecond, 1130 * time.Millisecond, 2370 * time.Millisecond, 4040 * time.Millisecond,
	} {
		t.Run("blackout at "+from.String(), func(t *testing.T) {
			eng := netsim.NewEngine(3)
			conn := NewConn(eng, Config{})
			// A silent blackout: the link keeps accepting data but
			// delivers nothing, so in-flight segments strand and only
			// the missing acknowledgement progress reveals the death.
			dying := netsim.NewLink(eng, netsim.PathConfig{
				Name: "dying", Rate: netsim.ConstantRate(3e6), Delay: 5 * time.Millisecond,
				Loss: netsim.BlackoutLoss{From: from},
			})
			healthy := netsim.NewLink(eng, netsim.PathConfig{
				Name: "healthy", Rate: netsim.ConstantRate(3e6), Delay: 15 * time.Millisecond,
			})
			for _, sc := range []SubflowConfig{{Name: "dying", Link: dying}, {Name: "healthy", Link: healthy}} {
				if _, err := conn.AddSubflow(sc); err != nil {
					t.Fatal(err)
				}
			}
			conn.SetScheduler(core.MustLoad("minRTT", schedlib.MinRTT, core.BackendCompiled))
			pm := NewPathManager(conn)

			// Poll the dying subflow every millisecond for its last
			// SACK progress and its close; polling blurs each by under
			// 1 ms.
			s := conn.subflows[0]
			sacked, progressAt, closedAt := int64(-1), time.Duration(0), time.Duration(-1)
			var poll func()
			poll = func() {
				if s.highestSacked > sacked {
					sacked, progressAt = s.highestSacked, eng.Now()
				}
				if s.Closed() {
					closedAt = eng.Now()
					return
				}
				eng.After(time.Millisecond, poll)
			}
			eng.After(0, poll)
			chk := &deliveryChecker{t: t}
			chk.attach(conn)
			const total = 32 << 20
			eng.After(0, func() { conn.Send(total, 0) })
			eng.RunUntil(60 * time.Second)

			if pm.ClosedByManager != 1 || closedAt < 0 {
				t.Fatalf("manager closed %d subflows (dying closed at %v), want the dying one", pm.ClosedByManager, closedAt)
			}
			if conn.subflows[1].Closed() {
				t.Errorf("healthy subflow closed")
			}
			if progressAt < from {
				t.Fatalf("last progress at %v, before the blackout at %v", progressAt, from)
			}
			if d := closedAt - progressAt; d < 3*time.Second-time.Millisecond || d > 3500*time.Millisecond+time.Millisecond {
				t.Errorf("closed %v after the last progress (%v), want 3.0–3.5 s", d, progressAt)
			}
			if chk.bytes != total {
				t.Errorf("delivered %d of %d after path death", chk.bytes, total)
			}
			if !conn.AllAcked() {
				t.Errorf("transfer not fully acked")
			}
		})
	}
}

func TestPathManagerLeavesHealthySubflowsAlone(t *testing.T) {
	eng, conn := buildConn(t, 1, Config{}, "minRTT",
		testNet{rate: 3e6, delay: 5 * time.Millisecond},
		testNet{rate: 3e6, delay: 15 * time.Millisecond},
	)
	pm := NewPathManager(conn)
	eng.After(0, func() { conn.Send(2<<20, 0) })
	eng.RunUntil(30 * time.Second)
	if pm.ClosedByManager != 0 {
		t.Errorf("manager closed %d healthy subflows", pm.ClosedByManager)
	}
	if !conn.AllAcked() {
		t.Fatalf("transfer incomplete")
	}
}

func TestPathManagerIdleConnectionNotKilled(t *testing.T) {
	// No traffic at all: nothing has outstanding data, nothing dies.
	eng, conn := buildConn(t, 1, Config{}, "minRTT",
		testNet{rate: 3e6, delay: 5 * time.Millisecond},
	)
	pm := NewPathManager(conn)
	eng.RunUntil(10 * time.Second)
	if pm.ClosedByManager != 0 {
		t.Errorf("idle subflow killed")
	}
}

func TestPathManagerPromotesBackup(t *testing.T) {
	eng := netsim.NewEngine(3)
	conn := NewConn(eng, Config{})
	wifi := netsim.NewLink(eng, netsim.PathConfig{
		Name: "wifi",
		Rate: netsim.SteppedRate(
			netsim.Step{From: 0, Rate: 3e6},
			netsim.Step{From: 500 * time.Millisecond, Rate: 0},
		),
		Delay: 5 * time.Millisecond,
	})
	lte := netsim.NewLink(eng, netsim.PathConfig{
		Name: "lte", Rate: netsim.ConstantRate(6e6), Delay: 20 * time.Millisecond,
	})
	if _, err := conn.AddSubflow(SubflowConfig{Name: "wifi", Link: wifi}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.AddSubflow(SubflowConfig{Name: "lte", Link: lte, Backup: true}); err != nil {
		t.Fatal(err)
	}
	// minRTT never uses a backup while a preferred subflow exists, so
	// without promotion the transfer would wedge after the WiFi death.
	conn.SetScheduler(core.MustLoad("minRTT", schedlib.MinRTT, core.BackendCompiled))
	pm := NewPathManager(conn)

	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 2 << 20
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(60 * time.Second)

	if pm.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", pm.Promotions)
	}
	if conn.subflows[1].backup {
		t.Errorf("LTE still flagged backup after promotion")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d of %d; promotion failed to unblock the transfer", chk.bytes, total)
	}
}

func TestPathManagerStop(t *testing.T) {
	eng := netsim.NewEngine(1)
	conn := NewConn(eng, Config{})
	link := netsim.NewLink(eng, netsim.PathConfig{
		Name:  "dead",
		Rate:  netsim.SteppedRate(netsim.Step{From: 0, Rate: 1e6}, netsim.Step{From: 100 * time.Millisecond, Rate: 0}),
		Delay: time.Millisecond,
	})
	if _, err := conn.AddSubflow(SubflowConfig{Name: "dead", Link: link}); err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad("minRTT", schedlib.MinRTT, core.BackendCompiled))
	pm := NewPathManager(conn)
	pm.Stop()
	eng.After(0, func() { conn.Send(64<<10, 0) })
	eng.RunUntil(10 * time.Second)
	if pm.ClosedByManager != 0 {
		t.Errorf("stopped manager still acted")
	}
}
