// Package fleet is the sharded multi-connection runtime: it hosts
// many MPTCP connections — each a self-contained netsim world — and
// drives them concurrently from a small set of per-core shards, each
// shard running a batched event loop (hashed timer wheel + ready
// batch) over its connection subset. It is the deployment story of
// the programming model: application-defined schedulers only pay off
// when one host can run them for a whole fleet of connections, which
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
//     happens only through the xstate store's epoch snapshots and the
//     obs Aggregator's atomics, both designed for concurrent readers.
//   - Shards batch: instead of one goroutine per connection (100k
//     goroutines, each mostly idle) the wheel files each connection at
//     the slice of its next engine event and the loop services only
//     the due batch per slice, advancing each serviced engine with one
//     RunUntil call.
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
	Think time.Duration
	// Slice is the wheel's batching quantum (default 5 ms of virtual
	// time). Smaller slices service connections closer to their event
	// times per pass; larger slices amortize loop overhead. Per-
	// connection trajectories do not depend on it.
	Slice time.Duration
	// LossProb applies Bernoulli loss to the secondary path of every
	// connection world (default 0).
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
	// programs execute statelessly). Required.
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
	Conservation bool
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
	if c.Slice <= 0 {
		c.Slice = 5 * time.Millisecond
	}
	return nil
}

// ConnSummary is one connection's end-of-run accounting.
type ConnSummary struct {
	// Delivered is the in-order byte count the receiver handed to the
	// application.
	Delivered int64
	// Segments counts in-order delivered segments.
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
	// BytesPerConn is the steady-state heap cost per connection world
	// (links, queues, engine, receiver), measured across construction.
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
	ConservationViolations []string
	// PerConn holds one summary per connection, indexed by connection
	// index.
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

	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		sched, err := cfg.NewScheduler()
		if err != nil {
			return Result{}, fmt.Errorf("fleet: shard %d scheduler: %w", i, err)
		}
		shards[i] = newShard(i, &cfg, sched)
		agg.Attach(obs.Labels{Conn: fmt.Sprintf("shard%d", i), Scheduler: cfg.Program}, shards[i].reg)
	}

	// Steady-state memory: the heap growth across constructing every
	// connection world, after a full GC on both sides of the build.
	var msBefore, msAfter stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&msBefore)
	for i := 0; i < cfg.Conns; i++ {
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
		Conns:           cfg.Conns,
		Shards:          cfg.Shards,
		VirtualDuration: cfg.Duration,
		Wall:            time.Since(start),
		BytesPerConn:    bytesPerConn,
		PerConn:         make([]ConnSummary, cfg.Conns),
	}
	for _, sh := range shards {
		res.EvictedDests += sh.evicted
		for _, fc := range sh.conns {
			sum := fc.summary()
			res.PerConn[fc.idx] = sum
			res.DeliveredBytes += sum.Delivered
			res.Bursts += int64(sum.Bursts)
			if sum.Acked {
				res.Acked++
			}
		}
	}
	res.ConservationViolations = collectViolations(shards, cfg.Conns)
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

// conservation is the slice of the checker's surface the result
// assembly needs; tests substitute a fake to pin the violation
// report's ordering without having to manufacture a real violation.
type conservation interface{ Violations() []string }

// collectViolations flattens every connection's conservation findings
// in connection-index order. Shards run concurrently and shard
// membership is an accident of the split, so appending in shard order
// would make the report depend on the shard count; indexing by fc.idx
// keeps it byte-identical for the same fleet however it is sharded.
func collectViolations(shards []*shard, conns int) []string {
	per := make([][]string, conns)
	for _, sh := range shards {
		for _, fc := range sh.conns {
			if fc.check != nil {
				per[fc.idx] = fc.check.Violations()
			}
		}
	}
	var out []string
	for _, v := range per {
		out = append(out, v...)
	}
	return out
}

// fleetConn is one connection world: a private engine, its links, and
// the burst driver state.
type fleetConn struct {
	idx   int
	eng   *netsim.Engine
	conn  *mptcp.Conn
	check conservation

	burstStart time.Duration
	bursts     int
	retired    bool
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

// buildConn constructs connection idx's world and files it with its
// shard's driver state (registry handles, delivery probes, burst
// schedule). The world depends only on cfg and idx.
//
// buildConn constructs deterministically from the connection seed
// alone; the run-loop determinism zone (//progmp:deterministic) starts
// at shard.run, and seed reproducibility of construction is covered by
// TestFleetDeterminism.
func buildConn(cfg *Config, idx int, sh *shard) (*fleetConn, error) {
	eng := netsim.NewEngineCompact(connSeed(cfg.Seed, idx))
	eng.Instrument(sh.reg)
	fc := &fleetConn{idx: idx, eng: eng}
	var loss netsim.LossModel
	if cfg.LossProb > 0 {
		loss = netsim.BernoulliLoss{P: cfg.LossProb}
	}
	wifiName, lteName := "wifi", "lte"
	if cfg.DestGroups > 0 {
		g := idx % cfg.DestGroups
		wifiName = fmt.Sprintf("wifi.g%d", g)
		lteName = fmt.Sprintf("lte.g%d", g)
	}
	conn, err := mptcp.Dial(eng, mptcp.Config{Store: cfg.Store},
		mptcp.SubflowSpec{Path: netsim.PathConfig{
			Name: wifiName, Rate: netsim.ConstantRate(3e6), Delay: 5 * time.Millisecond,
		}},
		mptcp.SubflowSpec{Path: netsim.PathConfig{
			Name: lteName, Rate: netsim.ConstantRate(8e6), Delay: 20 * time.Millisecond, Loss: loss,
		}, Backup: true})
	if err != nil {
		return nil, err
	}
	fc.conn = conn

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
		sh.mDelivUS.Observe((at - fc.burstStart).Microseconds())
	})

	// Burst driver: send, wait for the final ACK, think, repeat until
	// the horizon. OnAllAcked is one-shot, so each burst re-arms it.
	var startBurst func()
	onAcked := func() {
		if fc.eng.Now()+cfg.Think <= cfg.Duration {
			fc.eng.After(cfg.Think, startBurst)
		}
	}
	startBurst = func() {
		fc.burstStart = fc.eng.Now()
		fc.bursts++
		fc.conn.OnAllAcked(onAcked)
		fc.conn.Send(cfg.SendBytes, 0)
	}
	stagger := time.Duration(idx%997) * cfg.Think / 997
	eng.At(stagger, startBurst)
	return fc, nil
}
