package fleet

import (
	"sync/atomic"
	"testing"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/obs"
	"progmp/internal/xstate"
)

// TestExecutionsPerSegment pins how many scheduler executions the two
// benchmark fleets run per delivered segment, counted exactly. Both
// programs carry a quiescence certificate, so a connection skips the
// executions that would find Q and RQ empty or every window full.
// Without the skip these fleets ran 461259 and 247343 executions for
// the same segments (2.93 and 2.92 per segment): almost two idle
// executions per productive one. Now at most one in twenty is idle.
// The fleet is deterministic, so the counts are exact; the race job
// (-short) leaves them to the plain test run.
func TestExecutionsPerSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("2500 connections; the counts are pinned by the non-short run")
	}
	for _, c := range []struct {
		program     string
		conns       int
		store       bool
		execs, segs int64
	}{
		{"minRTT", 1500, false, 159589, 157378},
		{"jointFlow", 1000, true, 88576, 84826},
	} {
		t.Run(c.program, func(t *testing.T) {
			agg := obs.NewAggregator()
			cfg := Config{
				Conns:        c.conns,
				Shards:       1,
				Seed:         7,
				Duration:     time.Second,
				NewScheduler: vmScheduler(t, c.program),
				Program:      c.program,
				Agg:          agg,
			}
			if c.store {
				cfg.Store, cfg.DestGroups = xstate.NewStore(), 32
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var segs int64
			for _, pc := range res.PerConn {
				segs += pc.Segments
			}
			execs := agg.Aggregate().Counters["conn.sched_execs"]
			ratio := float64(execs) / float64(segs)
			t.Logf("%s: %d executions for %d delivered segments, %.3f per segment", c.program, execs, segs, ratio)
			if ratio > 1.05 {
				t.Errorf("%.3f executions per delivered segment, want ≤ 1.05", ratio)
			}
			if execs != c.execs || segs != c.segs {
				t.Errorf("%d executions for %d segments, want %d for %d", execs, segs, c.execs, c.segs)
			}
		})
	}
}

// TestCertifiedFleetTriggersAreInert runs the two benchmark fleet
// programs over their fleets with mptcp.VerifyQuiescence on: every
// trigger a certificate skips executes anyway and must emit no action,
// write no register or global, and see on its snapshot the facts the
// connection computed without one (TestCertifiedTriggersAreInert in
// internal/mptcp covers the corpus on the transfer shapes).
func TestCertifiedFleetTriggersAreInert(t *testing.T) {
	var checked, failed atomic.Int64
	mptcp.VerifyQuiescence = func(err error) {
		if err == nil {
			checked.Add(1)
		} else if failed.Add(1) <= 5 {
			t.Error(err)
		}
	}
	defer func() { mptcp.VerifyQuiescence = nil }()
	for _, c := range []struct {
		program string
		store   bool
	}{{"minRTT", false}, {"jointFlow", true}} {
		cfg := Config{
			Conns:        300,
			Seed:         7,
			Duration:     time.Second,
			NewScheduler: vmScheduler(t, c.program),
			Program:      c.program,
		}
		if c.store {
			cfg.Store, cfg.DestGroups = xstate.NewStore(), 32
		}
		before := checked.Load()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		n := checked.Load() - before
		t.Logf("%s: %d certified triggers checked", c.program, n)
		if n == 0 {
			t.Errorf("%s: no trigger was checked", c.program)
		}
	}
}
