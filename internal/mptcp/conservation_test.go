package mptcp

// Randomized end-to-end conservation tests: for random networks,
// schedulers and workloads, the connection must deliver every byte
// exactly once, in order, and eventually acknowledge everything.
// These invariants hold for ANY scheduler by construction of the
// runtime (graceful action application, mandatory subflow
// retransmission, reinjection) — the property the paper's isolation
// story depends on: a bad scheduler may be slow, never incorrect.

import (
	"math/rand"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

func corpusNames() []string {
	names := make([]string, 0, len(schedlib.All))
	for name := range schedlib.All {
		names = append(names, name)
	}
	return names
}

func TestRandomScenarioConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	names := corpusNames()
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		seed := rng.Int63()
		scheduler := names[rng.Intn(len(names))]
		nPaths := 1 + rng.Intn(3)
		backend := []core.Backend{core.BackendInterpreter, core.BackendCompiled, core.BackendVM}[rng.Intn(3)]
		ccs := []CongestionControl{LIA{}, Reno{}, OLIA{}}
		cc := ccs[rng.Intn(len(ccs))]

		eng := netsim.NewEngine(seed)
		conn := NewConn(eng, Config{CC: cc})
		for i := 0; i < nPaths; i++ {
			link := netsim.NewLink(eng, netsim.PathConfig{
				Name:   "p",
				Rate:   netsim.ConstantRate(float64(1+rng.Intn(8)) * 1e6),
				Delay:  time.Duration(1+rng.Intn(40)) * time.Millisecond,
				Jitter: time.Duration(rng.Intn(3)) * time.Millisecond,
				Loss:   netsim.BernoulliLoss{P: float64(rng.Intn(5)) / 100},
			})
			if _, err := conn.AddSubflow(SubflowConfig{
				Name:    "p",
				Link:    link,
				Backup:  i > 0 && rng.Intn(3) == 0,
				StartAt: time.Duration(rng.Intn(200)) * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		conn.SetScheduler(core.MustLoad(scheduler, schedlib.All[scheduler], backend))
		// Give the intent-driven schedulers plausible register values.
		conn.SetRegister(schedlib.RegTarget, int64(1+rng.Intn(8))<<20)
		conn.SetRegister(schedlib.RegCompRatio, 20)

		var total int64
		chk := &deliveryChecker{t: t}
		chk.attach(conn)
		bursts := 1 + rng.Intn(6)
		for b := 0; b < bursts; b++ {
			size := 1 + rng.Intn(128<<10)
			at := time.Duration(rng.Intn(3000)) * time.Millisecond
			total += int64(size)
			eng.At(at, func() { conn.Send(size, int64(rng.Intn(4))) })
		}
		// End-of-flow signal for the compensating family.
		eng.At(3500*time.Millisecond, func() { conn.SetRegister(schedlib.RegFlowEnd, 1) })
		eng.RunUntil(300 * time.Second)

		if chk.bytes != total {
			t.Fatalf("trial %d (%s on %s, %d paths, seed %d): delivered %d bytes, want exactly %d",
				trial, scheduler, backend, nPaths, seed, chk.bytes, total)
		}
		if !conn.AllAcked() {
			t.Fatalf("trial %d (%s on %s, %d paths, seed %d): not fully acked (Q=%d unacked=%d (RQ=%d))",
				trial, scheduler, backend, nPaths, seed,
				conn.QueuedSegments(), conn.UnackedSegments(), conn.reinjectSegments())
		}
	}
}

// TestDeadSubflowNeverWedgesConnection injects a mid-transfer path
// death under every corpus scheduler and requires completion through
// the surviving subflow — the stale-reference/starvation resilience
// claim of §3.3 exercised end to end.
func TestDeadSubflowNeverWedgesConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	for _, scheduler := range corpusNames() {
		scheduler := scheduler
		t.Run(scheduler, func(t *testing.T) {
			eng := netsim.NewEngine(5)
			conn := NewConn(eng, Config{})
			dying := netsim.NewLink(eng, netsim.PathConfig{
				Name: "dying",
				Rate: netsim.SteppedRate(
					netsim.Step{From: 0, Rate: 3e6},
					netsim.Step{From: 300 * time.Millisecond, Rate: 0},
				),
				Delay: 5 * time.Millisecond,
			})
			healthy := netsim.NewLink(eng, netsim.PathConfig{
				Name:  "healthy",
				Rate:  netsim.ConstantRate(3e6),
				Delay: 15 * time.Millisecond,
			})
			if _, err := conn.AddSubflow(SubflowConfig{Name: "dying", Link: dying}); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.AddSubflow(SubflowConfig{Name: "healthy", Link: healthy}); err != nil {
				t.Fatal(err)
			}
			conn.SetScheduler(core.MustLoad(scheduler, schedlib.All[scheduler], core.BackendCompiled))
			conn.SetRegister(schedlib.RegTarget, 8<<20)
			chk := &deliveryChecker{t: t}
			chk.attach(conn)
			const total = 1 << 20
			eng.After(0, func() { conn.Send(total, 0) })
			// The path manager notices the dead subflow eventually.
			eng.At(2*time.Second, func() { conn.subflows[0].Close() })
			eng.RunUntil(120 * time.Second)
			if chk.bytes != total {
				t.Fatalf("%s wedged after subflow death: delivered %d of %d", scheduler, chk.bytes, total)
			}
		})
	}
}
