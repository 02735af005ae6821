package fleet

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// everyNth panics on every nth execution and runs native MinRTT on the
// others. A shard's connections share one instance, so the count runs
// across them; the digest runs one shard, which keeps it deterministic.
type everyNth struct {
	n, execs int
}

func (s *everyNth) Exec(env *runtime.Env) {
	s.execs++
	if s.execs%s.n == 0 {
		panic("every nth execution")
	}
	sched.MinRTT{}.Exec(env)
}

// TestGuardedFleetDigest pins what a supervised fleet does under three
// programs: VM minRTT, which never strikes (and must deliver exactly
// what it delivers unguarded); a SET-only DSL program, which strikes
// for stalling until three connections quarantine it and the shard's
// guard.Fleet blocks it everywhere (hence its 6 s horizon: one stall
// strike takes 32 watchdog periods of 50 ms); and a native scheduler
// that panics on every 50th execution. Per program it pins the
// per-connection summaries, the delivery quantiles and the summed
// supervision counters. Execution counts are left out on purpose: the
// execution that quarantines may hand the fallback an iteration of its
// own. Regenerate with `go test -run TestGuardedFleetDigest -update`.
func TestGuardedFleetDigest(t *testing.T) {
	programs := []struct {
		name    string
		horizon time.Duration
		new     func() (mptcp.Scheduler, error)
	}{
		{"minRTT", time.Second, vmScheduler(t, "minRTT")},
		{"noPush", 6 * time.Second, func() (mptcp.Scheduler, error) {
			return core.Load("noPush", "SET(R1, R1 + 1);", core.BackendVM)
		}},
		{"panicEvery50", time.Second, func() (mptcp.Scheduler, error) { return &everyNth{n: 50}, nil }},
	}
	run := func(newSched func() (mptcp.Scheduler, error), program string, horizon time.Duration, guarded bool) (Result, obs.AggSnapshot) {
		agg := obs.NewAggregator()
		res, err := Run(Config{
			Conns:        200,
			Shards:       1,
			Seed:         7,
			Duration:     horizon,
			LossProb:     0.01,
			NewScheduler: newSched,
			Program:      program,
			Guard:        guarded,
			Agg:          agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, agg.Aggregate()
	}
	var b strings.Builder
	for _, p := range programs {
		res, snap := run(p.new, p.name, p.horizon, true)
		if p.name == "minRTT" {
			plain, _ := run(p.new, p.name, p.horizon, false)
			for i := range plain.PerConn {
				if res.PerConn[i] != plain.PerConn[i] {
					t.Fatalf("minRTT conn %d: guarded %+v, unguarded %+v", i, res.PerConn[i], plain.PerConn[i])
				}
			}
		}
		h := fnv.New64a()
		for _, c := range res.PerConn {
			fmt.Fprintf(h, "%+v\n", c)
		}
		c := snap.Counters
		fmt.Fprintf(&b, "%s over %v: delivered %d in %d bursts, %d acked, delivery p50 %d us p99 %d us, per-conn fnv %#x\n",
			p.name, p.horizon, res.DeliveredBytes, res.Bursts, res.Acked, res.DeliveryP50US, res.DeliveryP99US, h.Sum64())
		fmt.Fprintf(&b, "  guard: panics %d, violations %d, stalls %d, quarantines %d, restores %d\n",
			c["guard.panics"], c["guard.violations"], c["guard.stalls"], c["guard.quarantines"], c["guard.restores"])
	}
	got := b.String()
	golden := filepath.Join("testdata", "guarded.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("guarded fleet drifted from %s (rerun with -update if intended)\nwant:\n%s\ngot:\n%s", golden, want, got)
	}
}
