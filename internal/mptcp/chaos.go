package mptcp

import (
	"fmt"
	"sort"
	"time"

	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
)

// Chaos scenario driver: the connection-level half of the fault-
// injection harness. A ChaosScenario describes a hostile network (the
// link-level injectors are netsim.PathConfig's loss models, FlapRate
// and its duplication, reordering and jitter fields); RunChaos executes
// one seeded soak of a scheduler against it with the path manager and
// conservation checker attached, so every run asserts the model's core
// robustness claim — faults make a connection slow, never incorrect.

// ChaosScenario is one reproducible fault pattern. Paths is a builder,
// not a value, because loss models carry state (Gilbert-Elliott) and
// every run needs a fresh instance.
type ChaosScenario struct {
	Name string
	Desc string
	// Paths builds fresh per-run subflow specs.
	Paths func() []SubflowSpec
	// Revive, when set, adds one more subflow established at ReviveAt —
	// the revival half of a subflow-death scenario. The path manager
	// tears the dead subflow down; this brings capacity back.
	Revive   func() SubflowSpec
	ReviveAt time.Duration
	// SendBytes is the workload size (default 256 KiB).
	SendBytes int
	// Horizon bounds the virtual run time (default 300 s).
	Horizon time.Duration
}

// ChaosResult summarizes one chaos run.
type ChaosResult struct {
	Seed            int64
	DeliveredBytes  int64
	Segments        int64
	FCT             time.Duration // flow completion time (0 when incomplete)
	ClosedByManager int           // subflows the path manager tore down
	Promotions      int
}

// RunChaos executes one seeded soak of the scenario. schedFn builds
// the scheduler under test (nil means native MinRTT); a builder keeps
// per-run scheduler state fresh. The returned error is the
// conservation verdict: nil means every byte was delivered exactly
// once, in order, and fully acknowledged within the horizon.
func RunChaos(sc ChaosScenario, seed int64, schedFn func() Scheduler) (ChaosResult, error) {
	res, _, err := runChaos(sc, seed, Config{}, schedFn)
	return res, err
}

// runChaos is RunChaos on a connection configured by cfg, also
// returning the connection it ran so tests can inspect the state the
// soak ended in.
func runChaos(sc ChaosScenario, seed int64, cfg Config, schedFn func() Scheduler) (ChaosResult, *Conn, error) {
	res := ChaosResult{Seed: seed}
	if sc.Paths == nil {
		return res, nil, fmt.Errorf("chaos scenario %q has no paths", sc.Name)
	}
	sendBytes := sc.SendBytes
	if sendBytes == 0 {
		sendBytes = 256 << 10
	}
	horizon := sc.Horizon
	if horizon == 0 {
		horizon = 300 * time.Second
	}

	specs := sc.Paths()
	if sc.Revive != nil {
		spec := sc.Revive()
		spec.StartAt = sc.ReviveAt
		specs = append(specs, spec)
	}
	eng := netsim.NewEngine(seed)
	conn, err := Dial(eng, cfg, specs...)
	if err != nil {
		return res, nil, err
	}
	var s Scheduler
	if schedFn != nil {
		s = schedFn()
	}
	if s == nil {
		s = sched.MinRTT{}
	}
	conn.SetScheduler(s)
	pm := NewPathManager(conn)
	chk := NewConservationChecker(conn)
	conn.OnAllAcked(func() { res.FCT = eng.Now() })

	eng.After(0, func() { conn.Send(sendBytes, 0) })
	eng.RunUntil(horizon)
	pm.Stop()

	res.DeliveredBytes = chk.Bytes
	res.Segments = chk.Segments
	res.ClosedByManager = pm.ClosedByManager
	res.Promotions = pm.Promotions
	return res, conn, chk.Check(int64(sendBytes))
}

// wifiPath is a clean chaotic-scenario path: a moderate-rate,
// moderate-delay link with no injector.
func wifiPath(name string, rate float64, delay time.Duration) netsim.PathConfig {
	return netsim.PathConfig{Name: name, Rate: netsim.ConstantRate(rate), Delay: delay}
}

// ChaosScenarios is the scenario registry, keyed by name. Each covers
// one fault family from the robustness matrix; "meltdown" combines
// them all.
var ChaosScenarios = map[string]ChaosScenario{
	"bursty": {
		Name: "bursty",
		Desc: "Gilbert-Elliott bursty loss on both paths",
		Paths: func() []SubflowSpec {
			spec := func(name string) SubflowSpec {
				return SubflowSpec{Path: netsim.PathConfig{
					Name: name, Rate: netsim.ConstantRate(2e6), Delay: 10 * time.Millisecond,
					Loss: &netsim.GilbertElliott{PGood: 0.001, PBad: 0.3, PGoodToBad: 0.02, PBadToGood: 0.2},
				}}
			}
			return []SubflowSpec{spec("ge0"), spec("ge1")}
		},
	},
	"flap": {
		Name: "flap",
		Desc: "scheduled link flaps on the primary path",
		Paths: func() []SubflowSpec {
			flap := netsim.Flap{
				FirstDownAt: 500 * time.Millisecond,
				DownFor:     400 * time.Millisecond,
				UpFor:       1600 * time.Millisecond,
			}
			return []SubflowSpec{
				{Path: netsim.PathConfig{Name: "flappy", Rate: netsim.FlapRate(netsim.ConstantRate(4e6), flap), Delay: 8 * time.Millisecond}},
				{Path: wifiPath("steady", 1e6, 30*time.Millisecond)},
			}
		},
		// Long enough that the transfer spans several down/up cycles.
		SendBytes: 4 << 20,
	},
	"reorder": {
		Name: "reorder",
		Desc: "packet duplication, reordering and jitter on both paths",
		Paths: func() []SubflowSpec {
			noisy := func(name string, delay time.Duration) SubflowSpec {
				return SubflowSpec{Path: netsim.PathConfig{
					Name: name, Rate: netsim.ConstantRate(3e6), Delay: delay,
					DupProb: 0.03, ReorderProb: 0.05, ReorderBy: 20 * time.Millisecond, Jitter: 5 * time.Millisecond,
				}}
			}
			return []SubflowSpec{noisy("noisy0", 10*time.Millisecond), noisy("noisy1", 20*time.Millisecond)}
		},
	},
	"sbfdeath": {
		Name: "sbfdeath",
		Desc: "silent subflow death (blackout), path-manager teardown, later revival",
		Paths: func() []SubflowSpec {
			// The blackout hits while plenty of data is still queued, so
			// the dying subflow has un-SACKed segments for the path
			// manager's no-progress detector to observe.
			return []SubflowSpec{
				{Path: netsim.PathConfig{
					Name: "dying", Rate: netsim.ConstantRate(6e6), Delay: 5 * time.Millisecond,
					Loss: netsim.BlackoutLoss{From: 150 * time.Millisecond},
				}},
				{Path: wifiPath("survivor", 1e6, 40*time.Millisecond), Backup: true},
			}
		},
		Revive: func() SubflowSpec {
			return SubflowSpec{Path: wifiPath("revived", 6e6, 5*time.Millisecond)}
		},
		ReviveAt:  8 * time.Second,
		SendBytes: 2 << 20,
	},
	"meltdown": {
		Name: "meltdown",
		Desc: "bursty loss + flaps + reorder/duplication + subflow death, combined",
		Paths: func() []SubflowSpec {
			flap := netsim.Flap{
				FirstDownAt: time.Second,
				DownFor:     300 * time.Millisecond,
				UpFor:       1700 * time.Millisecond,
			}
			storm := netsim.PathConfig{
				Name: "storm", Rate: netsim.FlapRate(netsim.ConstantRate(3e6), flap), Delay: 12 * time.Millisecond,
				Loss:    &netsim.GilbertElliott{PGood: 0.002, PBad: 0.25, PGoodToBad: 0.01, PBadToGood: 0.3},
				DupProb: 0.02, ReorderProb: 0.04, Jitter: 4 * time.Millisecond,
			}
			return []SubflowSpec{
				{Path: storm},
				{Path: netsim.PathConfig{
					Name: "dying", Rate: netsim.ConstantRate(4e6), Delay: 6 * time.Millisecond,
					Loss: netsim.BlackoutLoss{From: 2 * time.Second},
				}},
				{Path: wifiPath("steady", 800e3, 50*time.Millisecond), Backup: true},
			}
		},
		Revive: func() SubflowSpec {
			return SubflowSpec{Path: wifiPath("revived", 4e6, 6*time.Millisecond)}
		},
		ReviveAt:  10 * time.Second,
		SendBytes: 4 << 20,
	},
}

// ChaosScenarioNames returns the registry keys, sorted.
func ChaosScenarioNames() []string {
	names := make([]string, 0, len(ChaosScenarios))
	for name := range ChaosScenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
