package fleet

import (
	"fmt"
	stdruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/xstate"
)

// freshFleet runs cfg's fleet as its recycling shards run it — each
// shard's connections in index order, one visit to the horizon each —
// but over worlds all built afresh by buildConn and driven by plain
// RunUntil calls, and reports the per-connection tally and the merged
// registries.
func freshFleet(t *testing.T, cfg Config) (*tally, obs.AggSnapshot) {
	t.Helper()
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	agg := obs.NewAggregator()
	out := newTally(cfg.Conns, cfg.Conservation)
	for s := 0; s < cfg.Shards; s++ {
		sched, err := cfg.NewScheduler()
		if err != nil {
			t.Fatal(err)
		}
		sh := newShard(&cfg, sched)
		sh.out = out
		agg.Attach(obs.Labels{Conn: fmt.Sprintf("shard%d", s)}, sh.reg)
		worlds := 0
		for idx := s; idx < cfg.Conns; idx += cfg.Shards {
			fc, err := buildConn(&cfg, idx, sh)
			if err != nil {
				t.Fatal(err)
			}
			if at, ok := fc.eng.NextEventAt(); ok && at <= cfg.Duration {
				fc.eng.RunUntil(cfg.Duration)
				sh.mVisits.Add(1)
			}
			sh.retire(fc)
			worlds++
		}
		sh.gConns.Set(int64(worlds))
	}
	return out, agg.Aggregate()
}

// TestRecycledFleetEqualsFresh pins the reset contract end to end: a
// fleet whose shards recycle one world each reports exactly what the
// same fleet reports with every world built afresh — every connection's
// summary, the conservation findings, the event count, every merged
// counter and gauge, and the merged delivery histogram — at one and
// three shards, with a program that keeps a register, loss drawing on
// every world's randomness and destination groups renaming the paths
// from one world to the next.
func TestRecycledFleetEqualsFresh(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := Config{
			Conns:        60,
			Shards:       shards,
			Seed:         13,
			Duration:     700 * time.Millisecond,
			Think:        40 * time.Millisecond,
			LossProb:     0.03,
			DestGroups:   4,
			NewScheduler: vmScheduler(t, "probingMinRTT"), // keeps a register across executions
			Conservation: true,
		}
		agg := obs.NewAggregator()
		cfg.Agg = agg
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := agg.Aggregate()
		want, wantSnap := freshFleet(t, cfg)

		for i, sum := range want.perConn {
			if res.PerConn[i] != sum {
				t.Fatalf("%d shards: conn %d recycled %+v, fresh %+v", shards, i, res.PerConn[i], sum)
			}
		}
		if r, w := strings.Join(res.ConservationViolations, "\n"), strings.Join(want.report(), "\n"); r != w {
			t.Fatalf("%d shards: conservation findings differ:\nrecycled %q\nfresh    %q", shards, r, w)
		}
		if len(res.ConservationViolations) > 0 {
			t.Fatalf("%d shards: conservation violated: %v", shards, res.ConservationViolations)
		}
		if res.Events != wantSnap.Counters["engine.events"] || res.Events == 0 {
			t.Fatalf("%d shards: %d events recycled, %d fresh", shards, res.Events, wantSnap.Counters["engine.events"])
		}
		if len(got.Counters) != len(wantSnap.Counters) {
			t.Fatalf("%d shards: %d counters recycled, %d fresh", shards, len(got.Counters), len(wantSnap.Counters))
		}
		for name, v := range wantSnap.Counters {
			if got.Counters[name] != v {
				t.Fatalf("%d shards: counter %s = %d recycled, %d fresh", shards, name, got.Counters[name], v)
			}
		}
		for name, v := range wantSnap.Gauges {
			if got.Gauges[name] != v {
				t.Fatalf("%d shards: gauge %s = %+v recycled, %+v fresh", shards, name, got.Gauges[name], v)
			}
		}
		if got.Hists["fleet.delivery_us"].Buckets != wantSnap.Hists["fleet.delivery_us"].Buckets {
			t.Fatalf("%d shards: merged fleet.delivery_us buckets differ", shards)
		}
		if got.Counters["sbf.lte.g3.retransmits"] == 0 {
			t.Fatalf("%d shards: no retransmission on the lossy path; the loss draws are not exercised: %v", shards, got.Counters)
		}
	}
}

// worldSchedulers are the programs FuzzWorldReset drives a world with:
// register writers, redundant senders and the plain default among them.
var worldSchedulers = []string{
	"minRTT", "roundRobin", "redundant", "opportunisticRedundant",
	"compensating", "probingMinRTT", "redundantIfNoQ", "minRTTOpportunistic",
}

var (
	loadWorldSchedulers sync.Once
	worldSchedulerSet   []mptcp.Scheduler
)

// worldConfig decodes one world configuration from four bytes: loss
// and scheduler, burst size, think time and destination groups, and the
// connection index.
func worldConfig(b []byte) (cfg Config, sched mptcp.Scheduler, idx int) {
	idx = int(b[3])
	cfg = Config{
		Conns:        idx + 1,
		Shards:       1,
		Seed:         int64(b[3]) * 7919,
		Duration:     400 * time.Millisecond,
		SendBytes:    500 + int(b[1])*256,
		Think:        time.Duration(b[2]&31+1) * 5 * time.Millisecond,
		LossProb:     [...]float64{0, 0.01, 0.05, 0.2}[b[0]&3],
		DestGroups:   int(b[2] >> 5),
		Conservation: true,
	}
	sched = worldSchedulerSet[int(b[0]>>2)%len(worldSchedulerSet)]
	cfg.NewScheduler = func() (mptcp.Scheduler, error) { return sched, nil }
	if err := cfg.applyDefaults(); err != nil {
		panic(err)
	}
	return cfg, sched, idx
}

// worldOutcome is what a world shows of its run: its connection's
// summary and findings, and its shard's registry but for the wall-time
// histograms.
type worldOutcome struct {
	sum              ConnSummary
	violations       string
	counters, gauges map[string]int64
	hists            map[string]int64 // sample counts
}

func runWorld(fc *fleetConn) worldOutcome {
	if at, ok := fc.eng.NextEventAt(); ok && at <= fc.sh.cfg.Duration {
		fc.eng.RunUntil(fc.sh.cfg.Duration)
	}
	snap := fc.sh.reg.Snapshot()
	o := worldOutcome{sum: fc.summary(), counters: snap.Counters, gauges: snap.Gauges, hists: map[string]int64{}}
	o.violations = strings.Join(fc.check.Violations(), "\n")
	for name, h := range snap.Hists {
		if !strings.HasSuffix(name, "_ns") {
			o.hists[name] = h.Count
		}
	}
	return o
}

func (o worldOutcome) diff(fresh worldOutcome) string {
	switch {
	case o.sum != fresh.sum:
		return fmt.Sprintf("summary %+v, fresh %+v", o.sum, fresh.sum)
	case o.violations != fresh.violations:
		return fmt.Sprintf("findings %q, fresh %q", o.violations, fresh.violations)
	case fmt.Sprint(o.counters) != fmt.Sprint(fresh.counters):
		return fmt.Sprintf("counters %v, fresh %v", o.counters, fresh.counters)
	case fmt.Sprint(o.gauges) != fmt.Sprint(fresh.gauges):
		return fmt.Sprintf("gauges %v, fresh %v", o.gauges, fresh.gauges)
	case fmt.Sprint(o.hists) != fmt.Sprint(fresh.hists):
		return fmt.Sprintf("histogram counts %v, fresh %v", o.hists, fresh.hists)
	}
	return ""
}

// FuzzWorldReset drives a sequence of world configurations — loss,
// scheduler, burst size, think time, destination groups, connection
// index — through one recycled world, and compares each run with a
// world built afresh for the same configuration. Between runs the test
// moves the world to a new shard (registry, scheduler, config), which
// no fleet does; the reset itself is the fleet's. Whatever the previous
// world left — registers, windows, rings, pending events, arena state,
// metric names — must not show. Its seed corpus is under
// testdata/fuzz/FuzzWorldReset.
func FuzzWorldReset(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		loadWorldSchedulers.Do(func() {
			for _, name := range worldSchedulers {
				s, err := core.Load(name, schedlib.All[name], core.BackendVM)
				if err != nil {
					panic(err)
				}
				worldSchedulerSet = append(worldSchedulerSet, s)
			}
		})
		var world *fleetConn
		for step := 0; len(data) >= 4 && step < 6; step, data = step+1, data[4:] {
			cfg, sched, idx := worldConfig(data)
			fresh, err := buildConn(&cfg, idx, newShard(&cfg, sched))
			if err != nil {
				t.Fatal(err)
			}
			want := runWorld(fresh)

			sh := newShard(&cfg, sched)
			if world == nil {
				if world, err = buildConn(&cfg, idx, sh); err != nil {
					t.Fatal(err)
				}
			} else {
				world.sh = sh
				world.reset(idx)
				world.eng.Instrument(sh.reg)
				world.conn.Instrument(nil, sh.reg)
				world.conn.SetScheduler(nil) // installing over none is no swap: no pass runs
				world.conn.SetScheduler(sched)
			}
			if d := runWorld(world).diff(want); d != "" {
				t.Fatalf("step %d (%+v, conn %d): recycled %s", step, cfg, idx, d)
			}
		}
	})
}

// TestUncoupledFleetAllocsPerWorld pins what a recycled world costs the
// allocator: the mallocs a 2N-connection fleet makes beyond an
// N-connection one, per added connection. A world built afresh costs
// about 115 (construction and warm-up: engine events, flights, paths,
// rings, window pages, arena, closures, metric names); a reset world
// reuses all of it.
func TestUncoupledFleetAllocsPerWorld(t *testing.T) {
	mallocs := func(conns int) uint64 {
		cfg := Config{
			Conns:        conns,
			Shards:       1,
			Seed:         5,
			Duration:     time.Second,
			NewScheduler: vmScheduler(t, "minRTT"),
		}
		var before, after stdruntime.MemStats
		stdruntime.GC()
		stdruntime.ReadMemStats(&before)
		res, err := Run(cfg)
		stdruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredBytes == 0 {
			t.Fatal("nothing delivered")
		}
		return after.Mallocs - before.Mallocs
	}
	const n = 400
	small, large := mallocs(n), mallocs(2*n)
	perWorld := (float64(large) - float64(small)) / n
	t.Logf("%d mallocs for %d connections, %d for %d: %.2f per world", small, n, large, 2*n, perWorld)
	if perWorld > 10 {
		t.Errorf("%.2f mallocs per added world, want at most 10: a reset world allocates again", perWorld)
	}
}

// heapProbe samples the live heap from inside a running fleet: every
// 1<<14 scheduler executions it collects and reads HeapAlloc.
type heapProbe struct {
	inner mptcp.Scheduler
	n     int
	peak  *heapPeak
}

type heapPeak struct {
	mu      sync.Mutex
	bytes   uint64
	samples int
}

func (p *heapProbe) Exec(env *runtime.Env) {
	if p.n++; p.n&(1<<14-1) == 0 {
		var ms stdruntime.MemStats
		stdruntime.GC()
		stdruntime.ReadMemStats(&ms)
		p.peak.mu.Lock()
		p.peak.bytes = max(p.peak.bytes, ms.HeapAlloc)
		p.peak.samples++
		p.peak.mu.Unlock()
	}
	p.inner.Exec(env)
}

// TestUncoupledFleetHeldHeap pins what a running uncoupled fleet of
// 20 000 connections holds: a world per shard (with the shard's
// scheduler and registry) and at most 64 B per connection (its summary
// slot), not a world per connection — which at this horizon held
// several kilobytes each.
func TestUncoupledFleetHeldHeap(t *testing.T) {
	const conns, shards = 20000, 2
	const perShard, perConn = 512 << 10, 64
	peak := &heapPeak{}
	sched := vmScheduler(t, "minRTT")
	var before stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&before)
	res, err := Run(Config{
		Conns:    conns,
		Shards:   shards,
		Seed:     9,
		Duration: 100 * time.Millisecond,
		NewScheduler: func() (mptcp.Scheduler, error) {
			s, err := sched()
			return &heapProbe{inner: s, peak: peak}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredBytes == 0 || peak.samples < 4 {
		t.Fatalf("%d bytes delivered, %d heap samples: the fleet barely ran", res.DeliveredBytes, peak.samples)
	}
	held := int64(peak.bytes) - int64(before.HeapAlloc)
	limit := int64(shards*perShard + conns*perConn)
	t.Logf("held %d B at peak over %d samples (%.1f B per connection), limit %d B", held, peak.samples, float64(held)/conns, limit)
	if held > limit {
		t.Errorf("a running fleet of %d connections on %d shards holds %d B, want at most %d B (%d per shard + %d per connection)",
			conns, shards, held, limit, perShard, perConn)
	}
}

// coupledFleet is a store-coupled, one-shard fleet as the fleet_shared
// workload runs it: jointFlow over 32 destination groups, every world
// resident and advanced in windows.
func coupledFleet(t *testing.T, conns int, seed int64) Config {
	return Config{
		Conns:        conns,
		Shards:       1,
		Seed:         seed,
		Duration:     time.Second,
		DestGroups:   32,
		NewScheduler: vmScheduler(t, "jointFlow"),
		Program:      "jointFlow",
		Store:        xstate.NewStore(),
	}
}

// TestCoupledFleetAllocsPerWorld pins what a world of a coupled fleet
// costs the allocator: the mallocs a 2N-connection fleet makes beyond
// an N-connection one, per added connection. Every world is resident,
// so each pays its construction (engine, links, subflows, receiver,
// rings, closures); its scratch — events, flights, send-window pages
// and the execution arena — comes from the shard, whose pools hold the
// fleet's peak at once rather than each world's own (95 mallocs per
// world when every world grew its own).
func TestCoupledFleetAllocsPerWorld(t *testing.T) {
	mallocs := func(conns int) uint64 {
		cfg := coupledFleet(t, conns, 5)
		var before, after stdruntime.MemStats
		stdruntime.GC()
		stdruntime.ReadMemStats(&before)
		res, err := Run(cfg)
		stdruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredBytes == 0 {
			t.Fatal("nothing delivered")
		}
		return after.Mallocs - before.Mallocs
	}
	const n = 400
	small, large := mallocs(n), mallocs(2*n)
	perWorld := (float64(large) - float64(small)) / n
	t.Logf("%d mallocs for %d connections, %d for %d: %.2f per world", small, n, large, 2*n, perWorld)
	if perWorld > 60 {
		t.Errorf("%.2f mallocs per added world, want at most 60: worlds grow scratch of their own", perWorld)
	}
}

// TestCoupledFleetHeldHeap pins what a coupled fleet of 5000
// connections holds at the horizon, its shard included: at most 9.5 KB
// per world (12.1 KB when every world kept its own arena and free
// lists).
func TestCoupledFleetHeldHeap(t *testing.T) {
	const conns, perWorld = 5000, 9728
	cfg := coupledFleet(t, conns, 9)
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	sched, err := cfg.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard(&cfg, sched)
	sh.out = newTally(cfg.Conns, cfg.Conservation)
	var before, after stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		fc, err := buildConn(&cfg, i, sh)
		if err != nil {
			t.Fatal(err)
		}
		sh.conns = append(sh.conns, fc)
	}
	sh.run()
	stdruntime.GC()
	stdruntime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	var delivered int64
	for _, fc := range sh.conns {
		delivered += fc.summary().Delivered
	}
	stdruntime.KeepAlive(sh)
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	t.Logf("held %d B at the horizon (%.0f B per world)", held, float64(held)/conns)
	if held > conns*perWorld {
		t.Errorf("a coupled fleet of %d worlds holds %d B at the horizon (%.0f B per world), want at most %d B per world",
			conns, held, float64(held)/conns, perWorld)
	}
}
