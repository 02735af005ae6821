package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// chaosSeeds is the fixed seed matrix the CI soak job runs; every
// scenario must conserve bytes for each of them.
var chaosSeeds = []int64{1, 42, 20240805}

// TestChaosMatrix runs every chaos scenario against the native MinRTT
// scheduler for each seed in the matrix: bytes delivered exactly once,
// in order, fully acknowledged within the horizon, the queues a
// partition of what the sender window still holds.
func TestChaosMatrix(t *testing.T) {
	for _, name := range ChaosScenarioNames() {
		sc := ChaosScenarios[name]
		for _, seed := range chaosSeeds {
			t.Run(sc.Name+"/"+itoa(seed), func(t *testing.T) {
				res, conn, err := runChaos(sc, seed, Config{}, nil)
				if err != nil {
					t.Fatalf("chaos %s seed %d: %v (result %+v)", sc.Name, seed, err, res)
				}
				checkQueueInvariants(t, conn, 0)
				if res.FCT == 0 {
					t.Fatalf("chaos %s seed %d: no flow completion recorded", sc.Name, seed)
				}
			})
		}
	}
}

// TestChaosProgMPSchedulers runs the combined meltdown scenario under
// ProgMP programs from the corpus on the VM back-end — the programming
// model's isolation claim under the worst fault mix.
func TestChaosProgMPSchedulers(t *testing.T) {
	for _, name := range []string{"minRTT", "redundant", "roundRobin"} {
		name := name
		t.Run(name, func(t *testing.T) {
			res, conn, err := runChaos(ChaosScenarios["meltdown"], 7, Config{}, func() Scheduler {
				return core.MustLoad(name, schedlib.All[name], core.BackendVM)
			})
			if err != nil {
				t.Fatalf("meltdown under %s: %v (result %+v)", name, err, res)
			}
			checkQueueInvariants(t, conn, 0)
		})
	}
}

// TestChaosSubflowDeathUsesPathManager asserts the sbfdeath scenario
// actually exercises the fault: the path manager must tear down the
// blacked-out subflow and the revived subflow must carry data.
func TestChaosSubflowDeathUsesPathManager(t *testing.T) {
	res, err := RunChaos(ChaosScenarios["sbfdeath"], 3, nil)
	if err != nil {
		t.Fatalf("sbfdeath: %v", err)
	}
	if res.ClosedByManager == 0 {
		t.Errorf("path manager closed no subflows; blackout not detected")
	}
	if res.Promotions == 0 {
		t.Errorf("no backup promotion; survivor should have been promoted")
	}
}

// TestChaosInjectorsActive asserts the link-level injectors fire: a
// reorder-scenario run must conserve bytes, and its paths must actually
// duplicate and reorder packets (guards against a silently disabled
// fault). The sink counts both on each path alone, with sends 10 ms
// apart so that the 5 ms jitter cannot reorder them.
func TestChaosInjectorsActive(t *testing.T) {
	eng := netsim.NewEngine(11)
	conn := NewConn(eng, Config{})
	for _, spec := range ChaosScenarios["reorder"].Paths() {
		if _, err := conn.AddSubflow(SubflowConfig{Name: spec.Path.Name, Link: netsim.NewLink(eng, spec.Path)}); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetScheduler(core.MustLoad("roundRobin", schedlib.All["roundRobin"], core.BackendCompiled))
	chk := NewConservationChecker(conn)
	const total = 512 << 10
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(120 * time.Second)
	if err := chk.Check(total); err != nil {
		t.Fatal(err)
	}
	var dups, reorders int
	for _, spec := range ChaosScenarios["reorder"].Paths() {
		eng := netsim.NewEngine(11)
		p := netsim.NewPath(eng, spec.Path)
		sink := &arrivals{seen: map[int64]bool{}}
		for seq := int64(0); seq < 1000; seq++ {
			eng.At(time.Duration(seq)*10*time.Millisecond, func() { p.SendMsg(1000, netsim.Msg{To: sink, A: seq}) })
		}
		eng.Run()
		dups += sink.dups
		reorders += sink.reorders
	}
	if dups == 0 {
		t.Errorf("no packets duplicated on a DupProb=0.03 path")
	}
	if reorders == 0 {
		t.Errorf("no packets reordered on a ReorderProb=0.05 path")
	}
}

// arrivals is a path's sink: an arrival seen before is a duplicate, and
// one below the highest seen a reorder.
type arrivals struct {
	seen           map[int64]bool
	high           int64
	dups, reorders int
}

func (a *arrivals) HandleEvent(_ uint8, seq, _, _ int64) {
	switch {
	case a.seen[seq]:
		a.dups++
	case seq < a.high:
		a.reorders++
	}
	a.seen[seq] = true
	a.high = max(a.high, seq)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
