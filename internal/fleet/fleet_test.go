package fleet

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/xstate"
)

func vmScheduler(t *testing.T, name string) func() (mptcp.Scheduler, error) {
	t.Helper()
	return func() (mptcp.Scheduler, error) {
		s, err := core.Load(name, schedlib.All[name], core.BackendVM)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// TestShardCountInvariance pins the fleet's core determinism
// property: a connection's trajectory depends only on the fleet seed
// and its index, so the same seeded connection set delivers
// byte-identically whether 1, 2 or 8 shards drive it.
//
// The store case is the one the bench's 1-vs-2-shard oracle relies on
// for fleet_shared: jointFlow steering by shared records across 32
// destination groups. It runs at loss 0 because jointFlow's
// XLOST < R1 + 8 threshold can make a lossy run depend on how the
// shards interleave their store writes (ROADMAP finding 5: shards share
// state with no common clock); the store's contents are left out until
// the window barrier (ROADMAP item 15) orders those writes.
func TestShardCountInvariance(t *testing.T) {
	cases := []struct {
		name  string
		store bool
		cfg   Config
	}{
		{"uncoupled", false, Config{
			Conns:        64,
			Seed:         7,
			Duration:     800 * time.Millisecond,
			SendBytes:    16 << 10,
			Think:        60 * time.Millisecond,
			LossProb:     0.02, // exercise the per-connection rng
			NewScheduler: vmScheduler(t, "minRTT"),
			Program:      "minRTT",
			Conservation: true,
		}},
		{"store", true, Config{
			Conns:        300,
			Seed:         7,
			Duration:     time.Second,
			DestGroups:   32,
			NewScheduler: vmScheduler(t, "jointFlow"),
			Program:      "jointFlow",
			Conservation: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) Result {
				cfg := tc.cfg
				cfg.Shards = shards
				if tc.store {
					cfg.Store = xstate.NewStore()
				}
				cfg.Agg = obs.NewAggregator()
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				checkRetiredOnce(t, cfg.Agg, res)
				if len(res.ConservationViolations) > 0 {
					t.Fatalf("%d shards: conservation violated: %v", shards, res.ConservationViolations)
				}
				if res.DeliveredBytes == 0 {
					t.Fatalf("%d shards: nothing delivered", shards)
				}
				return res
			}
			base := run(1)
			for _, shards := range []int{2, 8} {
				got := run(shards)
				if got.DeliveredBytes != base.DeliveredBytes || got.Bursts != base.Bursts || got.Acked != base.Acked ||
					got.Events != base.Events || got.DeliveryP50US != base.DeliveryP50US || got.DeliveryP99US != base.DeliveryP99US {
					t.Fatalf("fleet totals diverge: %d shards delivered=%d bursts=%d acked=%d events=%d delivery p50/p99=%d/%d us, "+
						"1 shard delivered=%d bursts=%d acked=%d events=%d delivery p50/p99=%d/%d us",
						shards, got.DeliveredBytes, got.Bursts, got.Acked, got.Events, got.DeliveryP50US, got.DeliveryP99US,
						base.DeliveredBytes, base.Bursts, base.Acked, base.Events, base.DeliveryP50US, base.DeliveryP99US)
				}
				for i := range base.PerConn {
					if got.PerConn[i] != base.PerConn[i] {
						t.Fatalf("conn %d diverges across shard counts: %d shards %+v, 1 shard %+v",
							i, shards, got.PerConn[i], base.PerConn[i])
					}
				}
			}
		})
	}
}

// checkRetiredOnce pins that a run retires, and so folds, each of its
// connections once: the merged fleet.retired counter and the summed
// fleet.conns gauges both count the fleet's connections, and every
// connection's tally slot was written (each started a burst). Conns
// retirements over Conns written slots leave one for each.
func checkRetiredOnce(t *testing.T, agg *obs.Aggregator, res Result) {
	t.Helper()
	snap := agg.Aggregate()
	if retired, conns := snap.Counters["fleet.retired"], snap.Gauges["fleet.conns"].Sum; retired != int64(res.Conns) || conns != int64(res.Conns) {
		t.Fatalf("%d shards: fleet.retired = %d, fleet.conns sums to %d, want %d each", res.Shards, retired, conns, res.Conns)
	}
	for i, sum := range res.PerConn {
		if sum.Bursts == 0 {
			t.Fatalf("%d shards: connection %d never folded into the tally", res.Shards, i)
		}
	}
}

// TestSliceSizeInvariance: for an uncoupled fleet the service window
// is a performance knob, never a semantic one. The derived window (the
// whole horizon: one visit per world) matches 1 ms and 20 ms windows in
// every per-connection result, the fleet totals, and the merged
// counters and delivery histogram.
func TestSliceSizeInvariance(t *testing.T) {
	type outcome struct {
		res      Result
		counters [3]int64
		delivery [64]int64
	}
	run := func(slice time.Duration) outcome {
		agg := obs.NewAggregator()
		res, err := Run(Config{
			Conns:        16,
			Shards:       2,
			Seed:         11,
			Duration:     500 * time.Millisecond,
			slice:        slice,
			NewScheduler: vmScheduler(t, "minRTT"),
			Agg:          agg,
			Conservation: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ConservationViolations) > 0 {
			t.Fatalf("slice %v: conservation violated: %v", slice, res.ConservationViolations)
		}
		snap := agg.Aggregate()
		return outcome{
			res: res,
			counters: [3]int64{snap.Counters["engine.events"],
				snap.Counters["conn.sched_execs"], snap.Counters["conn.pushes"]},
			delivery: snap.Hists["fleet.delivery_us"].Buckets,
		}
	}
	base := run(0)
	if base.res.DeliveredBytes == 0 || base.counters[1] == 0 {
		t.Fatalf("derived window: nothing ran (%d bytes, %d executions)", base.res.DeliveredBytes, base.counters[1])
	}
	for _, slice := range []time.Duration{time.Millisecond, 20 * time.Millisecond} {
		got := run(slice)
		a, b := got.res, base.res
		if a.DeliveredBytes != b.DeliveredBytes || a.Events != b.Events ||
			a.DeliveryP50US != b.DeliveryP50US || a.DeliveryP99US != b.DeliveryP99US {
			t.Fatalf("slice %v: delivered %d, events %d, delivery p50/p99 %d/%d us; derived window: %d, %d, %d/%d",
				slice, a.DeliveredBytes, a.Events, a.DeliveryP50US, a.DeliveryP99US,
				b.DeliveredBytes, b.Events, b.DeliveryP50US, b.DeliveryP99US)
		}
		for i := range b.PerConn {
			if a.PerConn[i] != b.PerConn[i] {
				t.Fatalf("conn %d diverges: slice %v %+v, derived window %+v", i, slice, a.PerConn[i], b.PerConn[i])
			}
		}
		if got.counters != base.counters {
			t.Fatalf("slice %v: engine.events, conn.sched_execs, conn.pushes = %v; derived window %v",
				slice, got.counters, base.counters)
		}
		if got.delivery != base.delivery {
			t.Fatalf("slice %v: merged fleet.delivery_us buckets differ from the derived window's", slice)
		}
	}
}

// TestUncoupledFleetVisitsEachWorldOnce pins the window rule through
// the fleet.visits counter: with nothing coupling the worlds, a shard
// advances each to the horizon in one RunUntil; a store or a guard
// couples them, so they advance in lock-step windows and are visited
// many times.
func TestUncoupledFleetVisitsEachWorldOnce(t *testing.T) {
	visits := func(store *xstate.Store, guard bool) int64 {
		agg := obs.NewAggregator()
		// Think 60 ms staggers every first burst inside the horizon.
		res, err := Run(Config{
			Conns:        40,
			Shards:       2,
			Seed:         3,
			Duration:     300 * time.Millisecond,
			Think:        60 * time.Millisecond,
			NewScheduler: vmScheduler(t, "minRTT"),
			Store:        store,
			Guard:        guard,
			Agg:          agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredBytes == 0 {
			t.Fatal("nothing delivered")
		}
		return agg.Aggregate().Counters["fleet.visits"]
	}
	if v := visits(nil, false); v != 40 {
		t.Errorf("uncoupled fleet: %d visits for 40 connections, want one each", v)
	}
	if v := visits(xstate.NewStore(), false); v <= 40 {
		t.Errorf("store-attached fleet: %d visits for 40 connections, want lock-step windows (more than one each)", v)
	}
	if v := visits(nil, true); v <= 40 {
		t.Errorf("guarded fleet: %d visits for 40 connections, want lock-step windows (more than one each)", v)
	}
}

// TestFleetSoakSmoke drives a small fleet end to end and checks the
// reported metrics are coherent: every burst conserved, latencies
// measured, per-shard sources aggregated.
func TestFleetSoakSmoke(t *testing.T) {
	agg := obs.NewAggregator()
	store := xstate.NewStore()
	res, err := Run(Config{
		Conns:        200,
		Shards:       4,
		Seed:         3,
		Duration:     600 * time.Millisecond,
		NewScheduler: vmScheduler(t, "minRTT"),
		Program:      "minRTT",
		Store:        store,
		Agg:          agg,
		DestGroups:   8,
		Conservation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ConservationViolations) > 0 {
		t.Fatalf("conservation violated: %v", res.ConservationViolations)
	}
	if res.DeliveredBytes == 0 || res.Bursts < int64(res.Conns) {
		t.Fatalf("soak barely ran: %+v", res)
	}
	if res.Acked == 0 {
		t.Fatal("no connection fully acknowledged")
	}
	if res.DecisionP99NS == 0 {
		t.Fatal("decision latency not measured")
	}
	if res.DeliveryP99US == 0 {
		t.Fatal("delivery latency not measured")
	}
	if res.Events == 0 {
		t.Fatal("engine events not counted")
	}
	if res.BytesPerConn <= 0 {
		t.Fatalf("BytesPerConn = %d", res.BytesPerConn)
	}
	snap := agg.Aggregate()
	if snap.NumSources != 4 {
		t.Fatalf("aggregator sources = %d, want 4 shards", snap.NumSources)
	}
	// Every connection released its store references at retirement, so
	// a zero-idle sweep reclaims every destination record.
	if n := store.NumDests(); n == 0 {
		t.Fatal("store never saw a destination")
	}
	store.EvictIdle(0)
	if n := store.NumDests(); n != 0 {
		t.Fatalf("%d dest records still referenced after the fleet retired", n)
	}

	// Without the store nothing couples the worlds, so each shard keeps
	// one (Config.recycles) and BytesPerConn spreads Shards worlds over
	// the connections, where the coupled fleet kept one per connection.
	// A shard's world is built first, so it also pays the shard
	// registry's metrics: allow it four coupled worlds' worth.
	unc, err := Run(Config{
		Conns:        200,
		Shards:       4,
		Seed:         3,
		Duration:     600 * time.Millisecond,
		NewScheduler: vmScheduler(t, "minRTT"),
		DestGroups:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resident := unc.BytesPerConn * int64(unc.Conns); unc.BytesPerConn <= 0 || resident > 4*int64(unc.Shards)*res.BytesPerConn {
		t.Fatalf("uncoupled fleet: BytesPerConn %d (%d B resident), want one world per shard (%d), the coupled fleet's is %d B",
			unc.BytesPerConn, resident, unc.Shards, res.BytesPerConn)
	}
}

// TestFleetGuardSmoke runs a supervised fleet: a scheduler that
// panics on every execution must quarantine everywhere while the
// fallback keeps bytes flowing.
func TestFleetGuardSmoke(t *testing.T) {
	agg := obs.NewAggregator()
	res, err := Run(Config{
		Conns:        8,
		Shards:       2,
		Seed:         5,
		Duration:     400 * time.Millisecond,
		NewScheduler: func() (mptcp.Scheduler, error) { return panicScheduler{}, nil },
		Program:      "panicky",
		Guard:        true,
		Agg:          agg,
		Conservation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRetiredOnce(t, agg, res)
	if len(res.ConservationViolations) > 0 {
		t.Fatalf("conservation violated: %v", res.ConservationViolations)
	}
	if res.DeliveredBytes == 0 {
		t.Fatal("guarded fleet delivered nothing (fallback not engaged?)")
	}
}

type panicScheduler struct{}

func (panicScheduler) Exec(env *runtime.Env) { panic("deliberate") }

// fakeChecker gives a world known conservation findings without
// having to manufacture a real violation.
type fakeChecker []string

func (f fakeChecker) Violations() []string { return f }
func (f fakeChecker) Reset()               {}

// TestViolationReportShardOrderInvariant pins the report's ordering:
// violations read in connection-index order no matter in which order
// the shards fold their connections. Regression: the report used to be
// appended in shard-walk order, so the same fleet produced differently-
// ordered reports at different shard counts.
func TestViolationReportShardOrderInvariant(t *testing.T) {
	const n = 6
	cfg := Config{Conns: n, Shards: 1, NewScheduler: vmScheduler(t, "minRTT")}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	sched, err := cfg.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard(&cfg, sched)
	conns := make([]*fleetConn, n)
	var want []string
	for i := range conns {
		fc, err := buildConn(&cfg, i, sh)
		if err != nil {
			t.Fatal(err)
		}
		v := fakeChecker{
			"conn " + string(rune('0'+i)) + ": first",
			"conn " + string(rune('0'+i)) + ": second",
		}
		fc.check = v
		conns[i] = fc
		want = append(want, v...)
	}
	// The order in which connections are folded: one shard, three
	// shards finishing in turn, two shards walking backwards.
	layouts := map[string][]int{
		"1shard":   {0, 1, 2, 3, 4, 5},
		"3shards":  {0, 3, 1, 4, 2, 5},
		"reversed": {5, 3, 1, 4, 2, 0},
	}
	for name, order := range layouts {
		tl := newTally(n, true)
		for _, i := range order {
			tl.fold(conns[i])
		}
		got := tl.report()
		if len(got) != len(want) {
			t.Fatalf("%s: %d violations, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: violation %d = %q, want %q (report must read in connection-index order)",
					name, i, got[i], want[i])
			}
		}
	}
}

// TestWorldStandaloneEqualsFleet pins the seam a one-connection replay
// stands on: a connection's world is a function of (config, index)
// alone, so connection idx rebuilt by itself with the fleet's own
// builder and driven by one plain RunUntil — no windows, no
// neighbours — ends exactly where the sharded run left it.
func TestWorldStandaloneEqualsFleet(t *testing.T) {
	cfg := Config{
		Conns:        64,
		Shards:       2,
		Seed:         7,
		Duration:     800 * time.Millisecond,
		SendBytes:    16 << 10,
		Think:        60 * time.Millisecond,
		LossProb:     0.02, // exercise the per-connection rng
		NewScheduler: vmScheduler(t, "minRTT"),
		Program:      "minRTT",
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 17, 63} {
		sched, err := cfg.NewScheduler()
		if err != nil {
			t.Fatal(err)
		}
		fc, err := buildConn(&cfg, idx, newShard(&cfg, sched))
		if err != nil {
			t.Fatal(err)
		}
		fc.eng.RunUntil(cfg.Duration)
		if got := fc.summary(); got != res.PerConn[idx] {
			t.Errorf("conn %d standalone %+v, in the fleet %+v", idx, got, res.PerConn[idx])
		}
		if res.PerConn[idx].Delivered == 0 {
			t.Errorf("conn %d delivered nothing; the comparison is vacuous", idx)
		}
	}
}
