// Package fleet is the sharded multi-connection runtime: it hosts
// many MPTCP connections — each a self-contained netsim world — and
// drives them concurrently from a small set of per-core shards, each
// shard running a batched event loop over its connection subset. It is
// the deployment story of the programming model: application-defined
// schedulers only pay off when one host can run them for a whole
// fleet of connections, which
// is also the regime where the cross-connection shared state
// (internal/xstate) and fleet observability (internal/obs Aggregator)
// built by earlier layers become meaningful.
//
// Design rules:
//
//   - Every connection owns its engine, links and randomness, seeded
//     from the fleet seed and the connection index only. A
//     connection's trajectory therefore never depends on which shard
//     services it or how many shards exist — the property the
//     shard-count invariance test pins.
//   - A shard is one goroutine. It never touches another shard's
//     connections, so connection code runs exactly as single-threaded
//     as it does under a lone netsim engine. Cross-shard coupling
//     happens only through the xstate store's seqlocked table and the
//     obs Aggregator's atomics, both designed for concurrent readers.
//   - Shards batch: instead of one goroutine per connection (100k
//     goroutines, each mostly idle) a shard keeps each world's next
//     event time and, per window, visits only the worlds due in it,
//     advancing each with one RunUntil call.
//   - The visit order is a rule: in each shard, the due worlds of a
//     window run in connection-index order, while shards run
//     concurrently. Coupled worlds therefore see one another's store
//     writes in that order.
//   - The window comes from coupling. Without a store or a guard no
//     world can see another, so a shard runs each world to the horizon
//     in one visit; with either, the worlds advance in lock-step 5 ms
//     windows (Config.applyDefaults is the one place the rule lives:
//     it derives Config.coupled).
//   - A shard whose worlds run one at a time holds one world. It builds
//     it for its first connection and resets it in place for each next
//     one (Config.recycles), so the heap holds a world per shard, not
//     per connection, and a world's construction and warm-up are paid
//     once per shard. A world gets every connection, its first
//     included, from one reset, so a reset world is a freshly built one
//     by construction.
//   - A world keeps its state; the shard keeps the scratch. Every
//     world's engine draws free events and flights from the shard's
//     netsim.Pool, its send window pages from the shard's PagePool, and
//     its scheduler executions run in an arena the shard's ArenaPool
//     lends, so the shard holds its worlds' peak work at once instead
//     of each world its own.
//
// See docs/FLEET.md for the architecture and soak-mode usage.
package fleet

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"time"

	"progmp/internal/guard"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/xstate"
)

// Config parameterizes a fleet run. NewScheduler is required;
// everything else has serviceable defaults.
type Config struct {
	// Conns is the number of concurrent connections (default 1).
	Conns int
	// Shards is the number of shard loops (default GOMAXPROCS).
	Shards int
	// Seed derives every connection's private seed (splitmix-mixed
	// with the connection index).
	Seed int64
	// Duration is the virtual soak horizon (default 2s).
	Duration time.Duration
	// SendBytes is the per-burst transfer size (default 16 KiB). Each
	// connection sends bursts back-to-back separated by Think until
	// the horizon.
	SendBytes int
	// Think is the idle gap between a burst's final ACK and the next
	// burst (default 100 ms). Connection starts are staggered across
	// one Think period to avoid a synchronized thundering herd.
	//progmp:ignore testonly only bench/ sets it (bench/fleet.go, bench/probes.go); ROADMAP item 3 retargets the bench
	Think time.Duration
	// LossProb applies Bernoulli loss to the secondary path of every
	// connection world (default 0).
	//progmp:ignore testonly TestSharedFleetDigest runs its golden (testdata/shared.golden) at three loss rates; 0 ships
	LossProb float64
	// DestGroups spreads connections across that many distinct
	// destination identities per path (subflow names "wifi.gN" /
	// "lte.gN" with N = connection index mod DestGroups), so a
	// churning fleet feeds — and, as connections retire, lets the
	// shard sweeps evict — many shared-store destination records.
	// Also multiplies per-subflow metric names in the shard
	// registries, so keep it modest. 0 shares one identity per path
	// fleet-wide.
	DestGroups int
	// NewScheduler builds one scheduler instance per shard (a shard is
	// single-threaded, so its connections share the instance; VM
	// programs execute statelessly). Required. The instance must keep
	// no decision state across connections (DSL programs keep their
	// registers on the Conn): shard-count invariance assumes it, and so
	// does running an uncoupled shard's worlds one after another.
	NewScheduler func() (mptcp.Scheduler, error)
	// Program names the scheduler for guard fleet enrollment and
	// aggregator labels.
	Program string
	// Guard supervises every connection (panic recovery, strikes on
	// refused actions, quarantine) and enrolls it in a per-shard
	// guard.Fleet. Note that fleet-wide blocking couples connections
	// within a shard, so guarded runs are deterministic per shard count,
	// not across shard counts.
	Guard bool
	// Store attaches the cross-connection shared-state store to every
	// connection; shard loops sweep idle destination records out of it
	// as connections retire.
	Store *xstate.Store
	// Agg receives each shard's metrics registry as a labeled source
	// (conn label "shard0", "shard1", ...). Nil: the run builds a
	// private aggregator; either way Result quantiles come from the
	// fleet merge.
	Agg *obs.Aggregator
	// Conservation attaches a ConservationChecker to every connection
	// and collects violations into the result (tests, CI smoke).
	//progmp:ignore testonly only bench/ and the fleet tests set it (bench/fleet.go); ROADMAP item 3 retargets the bench
	Conservation bool

	// coupled reports whether the worlds can see one another, through
	// the store or the guard. applyDefaults derives it.
	coupled bool
	// slice is the shard's service window: how far one visit advances
	// a world. applyDefaults derives it; in-package tests override it.
	slice time.Duration
}

func (c *Config) applyDefaults() error {
	if c.NewScheduler == nil {
		return fmt.Errorf("fleet: Config.NewScheduler is required")
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Shards <= 0 {
		c.Shards = stdruntime.GOMAXPROCS(0)
	}
	if c.Shards > c.Conns {
		c.Shards = c.Conns
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.SendBytes <= 0 {
		c.SendBytes = 16 << 10
	}
	if c.Think <= 0 {
		c.Think = 100 * time.Millisecond
	}
	// Worlds couple only through the store and the guard; without
	// either, the order they run in is invisible.
	c.coupled = c.Store != nil || c.Guard
	if c.slice <= 0 {
		c.slice = 5 * time.Millisecond
		if !c.coupled {
			c.slice = c.Duration
		}
	}
	return nil
}

// recycles reports whether a shard runs its connections in one world
// object, reset in place for each: nothing couples the worlds and one
// visit takes a world to the horizon, so the shard is done with a world
// before it starts the next.
func (c *Config) recycles() bool {
	return !c.coupled && c.slice >= c.Duration
}

// ConnSummary is one connection's end-of-run accounting.
type ConnSummary struct {
	// Delivered is the in-order byte count the receiver handed to the
	// application.
	Delivered int64
	// Segments counts in-order delivered segments.
	//progmp:ignore testonly bench/fleet.go reads it (seg_per_s)
	Segments int64
	// Bursts counts transfers started (the final one may still be in
	// flight at the horizon).
	Bursts int
	// Acked reports whether the send buffer fully drained by the
	// horizon.
	Acked bool
}

// Result is the fleet run's outcome.
type Result struct {
	Conns  int
	Shards int
	// VirtualDuration is the soak horizon; Wall the host time spent.
	VirtualDuration time.Duration
	Wall            time.Duration
	// DeliveredBytes sums in-order deliveries across the fleet.
	DeliveredBytes int64
	// Bursts counts transfers started across the fleet.
	Bursts int64
	// Acked counts connections whose send buffer fully drained.
	Acked int
	// BytesPerConn is the heap growth across building the worlds the
	// run keeps resident, after a full GC on both sides, divided by
	// Conns. A coupled fleet keeps every world resident, so it is one
	// world's construction cost (links, queues, engine, receiver; the
	// execution arena and the free events, flights and pages are the
	// shard's); an uncoupled one keeps one world per shard
	// (Config.recycles), so it is Shards worlds spread over Conns.
	BytesPerConn int64
	// DecisionP50NS/P99NS are fleet quantiles of the scheduler
	// decision latency (wall ns per execution, conn.sched_exec_ns),
	// sampled on one execution in 16 of each shard's execution count.
	DecisionP50NS, DecisionP99NS int64
	// DeliveryP50US/P99US are fleet quantiles of delivery latency:
	// virtual µs from burst enqueue to each in-order delivery.
	DeliveryP50US, DeliveryP99US int64
	// Events counts fired engine events across the fleet.
	Events int64
	// EvictedDests counts shared-store destination records reclaimed
	// by the shard sweeps.
	EvictedDests int64
	// ConservationViolations collects checker findings when
	// Config.Conservation is set (nil means every connection clean).
	//progmp:ignore testonly bench/fleet.go reads it (the conservation oracle)
	ConservationViolations []string
	// PerConn holds one summary per connection, indexed by connection
	// index.
	//progmp:ignore testonly bench/fleet.go reads it (seg_per_s and the shard-invariance oracle)
	PerConn []ConnSummary
}

// Run builds the fleet, drives every shard to the horizon, and
// reports the merged outcome.
func Run(cfg Config) (Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Result{}, err
	}
	agg := cfg.Agg
	if agg == nil {
		agg = obs.NewAggregator()
	}

	out := newTally(cfg.Conns, cfg.Conservation)
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		sched, err := cfg.NewScheduler()
		if err != nil {
			return Result{}, fmt.Errorf("fleet: shard %d scheduler: %w", i, err)
		}
		shards[i] = newShard(&cfg, sched)
		shards[i].out = out
		agg.Attach(obs.Labels{Conn: fmt.Sprintf("shard%d", i), Scheduler: cfg.Program}, shards[i].reg)
	}

	// Resident memory (Result.BytesPerConn): the heap growth across
	// building the worlds the run keeps, after a full GC on both sides
	// of the build. A recycling shard keeps one, built for its first
	// connection and reset for each next (shard.world).
	resident := cfg.Conns
	if cfg.recycles() {
		resident = cfg.Shards
	}
	var msBefore, msAfter stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&msBefore)
	for i := 0; i < resident; i++ {
		sh := shards[i%cfg.Shards]
		fc, err := buildConn(&cfg, i, sh)
		if err != nil {
			return Result{}, err
		}
		sh.conns = append(sh.conns, fc)
	}
	stdruntime.GC()
	stdruntime.ReadMemStats(&msAfter)
	bytesPerConn := int64(msAfter.HeapAlloc-msBefore.HeapAlloc) / int64(cfg.Conns)

	start := time.Now()
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.run()
		}(sh)
	}
	wg.Wait()

	res := Result{
		Conns:                  cfg.Conns,
		Shards:                 cfg.Shards,
		VirtualDuration:        cfg.Duration,
		Wall:                   time.Since(start),
		BytesPerConn:           bytesPerConn,
		PerConn:                out.perConn,
		ConservationViolations: out.report(),
	}
	for _, sh := range shards {
		res.EvictedDests += sh.evicted
	}
	for _, sum := range out.perConn {
		res.DeliveredBytes += sum.Delivered
		res.Bursts += int64(sum.Bursts)
		if sum.Acked {
			res.Acked++
		}
	}
	snap := agg.Aggregate()
	if h, ok := snap.Hists["conn.sched_exec_ns"]; ok {
		res.DecisionP50NS, res.DecisionP99NS = h.P50, h.P99
	}
	if h, ok := snap.Hists["fleet.delivery_us"]; ok {
		res.DeliveryP50US, res.DeliveryP99US = h.P50, h.P99
	}
	res.Events = snap.Counters["engine.events"]
	return res, nil
}

// tally is the run's per-connection outcome, one slot per connection
// index. Each shard folds its own connections' slots, in whatever order
// it finishes them, and the report reads the slots in index order: the
// same fleet reports the same whatever the shard count.
type tally struct {
	perConn    []ConnSummary
	violations [][]string // conservation findings; nil when not checked
}

func newTally(conns int, conservation bool) *tally {
	t := &tally{perConn: make([]ConnSummary, conns)}
	if conservation {
		t.violations = make([][]string, conns)
	}
	return t
}

// fold records the world's outcome as its connection's.
func (t *tally) fold(fc *fleetConn) {
	t.perConn[fc.idx] = fc.summary()
	if fc.check != nil {
		t.violations[fc.idx] = fc.check.Violations()
	}
}

// report flattens the conservation findings in connection-index order.
func (t *tally) report() []string {
	var out []string
	for _, v := range t.violations {
		out = append(out, v...)
	}
	return out
}

// fleetConn is one connection world: a private engine, its links, and
// the state of its bursts. reset gives it its connection: buildConn its
// first, a recycling shard each next one.
type fleetConn struct {
	idx   int
	sh    *shard
	eng   *netsim.Engine
	conn  *mptcp.Conn
	check conservation

	burstStart time.Duration
	bursts     int

	// The burst driver, built with the world and kept by its resets:
	// send, wait for the final ACK, think, repeat until the horizon.
	startBurst, onAcked func()
}

// conservation is what the fleet needs of a world's checker
// (*mptcp.ConservationChecker): its findings, and a fresh start when
// the world is reset.
type conservation interface {
	Violations() []string
	Reset()
}

// summary is the connection's end-of-run accounting; it reads only
// the world, so it is the same whether a shard or a lone RunUntil drove
// the engine.
func (fc *fleetConn) summary() ConnSummary {
	return ConnSummary{
		Delivered: fc.conn.Receiver().DeliveredBytes,
		Segments:  fc.conn.Receiver().DeliveredSegments,
		Bursts:    fc.bursts,
		Acked:     fc.conn.AllAcked(),
	}
}

// connSeed derives the connection's private seed from the fleet seed
// and the connection index alone, so shard assignment can never alter
// a trajectory.
//
//progmp:deterministic
func connSeed(fleetSeed int64, idx int) int64 {
	return int64(netsim.Mix64(uint64(fleetSeed)*0x9e3779b97f4a7c15 + uint64(idx)))
}

// buildConn builds a world for the shard and resets it as connection
// idx's (reset). It wires only what the world keeps from one connection
// to the next: the engine, the connection, the shard's pools, the
// scheduler or its guard, the instruments, the checker, the delivery
// hook and the burst closures. The world depends only on cfg and idx;
// cfg is the shard's.
//
// buildConn constructs deterministically from the connection seed
// alone; the run-loop determinism zone (//progmp:deterministic) starts
// at shard.run, and seed reproducibility of construction is covered by
// TestShardCountInvariance and TestWorldStandaloneEqualsFleet.
func buildConn(cfg *Config, idx int, sh *shard) (*fleetConn, error) {
	eng := netsim.NewEngineCompact(0) // reset seeds it
	eng.Instrument(sh.reg)
	eng.SharePool(&sh.pool)
	conn := mptcp.NewConn(eng, mptcp.Config{Store: cfg.Store})
	fc := &fleetConn{sh: sh, eng: eng, conn: conn}
	conn.SharePages(&sh.pages)
	conn.ShareArena(&sh.arenas)

	if cfg.Guard {
		sup := guard.New(sh.sched, guard.Config{
			Now:   eng.Now,
			After: func(d time.Duration, fn func()) { eng.After(d, fn) },
			Wake:  conn.Kick,
		})
		conn.SetScheduler(sup)
		sup.Instrument(nil, conn.TraceConnID(), sh.reg)
		sh.fleet.Enroll(cfg.Program, sup)
	} else {
		conn.SetScheduler(sh.sched)
	}
	// Shard-level instrumentation: every connection of the shard
	// resolves the same named handles, so counters sum and the
	// decision-latency histogram spans the shard's population.
	conn.Instrument(nil, sh.reg)

	if cfg.Conservation {
		fc.check = mptcp.NewConservationChecker(conn)
	}
	conn.Receiver().AddDeliveryHook(func(_ int64, _ int, at time.Duration) {
		fc.sh.mDelivUS.Observe((at - fc.burstStart).Microseconds())
	})

	// OnAllAcked is one-shot, so each burst re-arms it.
	fc.onAcked = func() {
		if c := fc.sh.cfg; fc.eng.Now()+c.Think <= c.Duration {
			fc.eng.After(c.Think, fc.startBurst)
		}
	}
	fc.startBurst = func() {
		fc.burstStart = fc.eng.Now()
		fc.bursts++
		fc.conn.OnAllAcked(fc.onAcked)
		fc.conn.Send(fc.sh.cfg.SendBytes, 0)
	}
	if err := fc.reset(idx); err != nil {
		return nil, err
	}
	return fc, nil
}

// reset makes the world connection idx's: the engine seeded and emptied,
// the connection dialled over idx's paths (Conn.Reset, which is what
// Dial does on a fresh Conn), the checker and the burst count started
// over, the first burst staggered. buildConn resets each world it
// builds, and a recycling shard resets its one world in place for each
// next connection, so a recycled world is a fresh one by construction.
// What buildConn wired stays, and so does the memory every layer grew.
// Only an uncoupled world is reset for a second connection: a guard or
// a store would carry the old connection's state into the new.
func (fc *fleetConn) reset(idx int) error {
	cfg := fc.sh.cfg
	fc.eng.Reset(connSeed(cfg.Seed, idx))
	//progmp:ignore deterministic construction, as Dial's: the world follows from the seed and the paths alone (TestRecycledFleetEqualsFresh)
	if err := fc.conn.Reset(fc.sh.paths(idx)...); err != nil {
		return err
	}
	if fc.check != nil {
		fc.check.Reset()
	}
	fc.idx, fc.burstStart, fc.bursts = idx, 0, 0
	// Connection starts spread across one think period, so a fleet does
	// not start in one herd.
	fc.eng.At(time.Duration(idx%997)*cfg.Think/997, fc.startBurst)
	return nil
}
