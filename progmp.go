// Package progmp is a Go reproduction of ProgMP — the programming
// model for application-defined Multipath TCP scheduling of Frömmgen
// et al. (ACM Middleware 2017, https://progmp.net).
//
// The package offers the extended scheduling API of §3.2 in the shape
// of the paper's userspace library (Fig. 8): load scheduler
// specifications, attach them to connections, set registers, and
// annotate data with per-packet scheduling intents. Because the kernel
// data path is replaced by a deterministic userspace MPTCP model (see
// DESIGN.md), connections run inside a simulated network:
//
//	net := progmp.NewNetwork(42)
//	conn, _ := net.Dial(progmp.ConnConfig{},
//	    progmp.Path{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
//	    progmp.Path{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, Backup: true},
//	)
//	sched, _ := progmp.LoadScheduler("myTAP", progmp.Schedulers["tap"])
//	conn.SetScheduler(sched)
//	conn.SetRegister(progmp.R1, 4<<20) // target 4 MB/s
//	conn.Send(1<<20, 0)
//	net.Run(10 * time.Second)
package progmp

import (
	"fmt"
	"io"
	"time"

	"progmp/internal/core"
	"progmp/internal/guard"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
	"progmp/internal/xstate"
)

// Backend selects the execution environment for scheduler programs
// (§4.1 of the paper).
type Backend = core.Backend

// The three execution back-ends.
const (
	BackendInterpreter = core.BackendInterpreter
	BackendCompiled    = core.BackendCompiled
	BackendVM          = core.BackendVM
)

// Scheduler is a loaded, executable scheduler program.
type Scheduler = core.Scheduler

// Register indices for SetRegister (the language spells them R1..R8).
const (
	R1 = iota
	R2
	R3
	//progmp:ignore testonly an iota member: deleting it would renumber R8
	R4
	//progmp:ignore testonly an iota member: deleting it would renumber R8
	R5
	//progmp:ignore testonly an iota member: deleting it would renumber R8
	R6
	//progmp:ignore testonly an iota member: deleting it would renumber R8
	R7
	R8
)

// Schedulers is the paper's scheduler corpus: the mainline schedulers
// of §3.4 and the novel schedulers of §5, as ProgMP source text. See
// package schedlib for the register and packet-property conventions.
var Schedulers = schedlib.All

// CheckScheduler parses and type-checks a scheduler specification,
// returning its static diagnostics without loading it.
func CheckScheduler(src string) error {
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	_, err = types.Check(prog)
	return err
}

// LoadScheduler compiles a specification on the default back-end (the
// bytecode VM with runtime specialization, the paper's recommended
// configuration).
func LoadScheduler(name, src string) (*Scheduler, error) {
	return core.Load(name, src, core.BackendVM)
}

// LoadSchedulerBackend compiles a specification on a chosen back-end.
func LoadSchedulerBackend(name, src string, backend Backend) (*Scheduler, error) {
	return core.Load(name, src, backend)
}

// Disassemble compiles a specification to bytecode and returns its
// disassembly — the tooling view of the cross-compiler output.
func Disassemble(src string) (string, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	info, err := types.Check(prog)
	if err != nil {
		return "", err
	}
	p, err := vm.Compile(info, vm.Options{SubflowCount: -1})
	if err != nil {
		return "", err
	}
	return p.Disassemble(), nil
}

// ---- Simulated network and connections ----

// Path describes one subflow path of a connection.
type Path struct {
	Name        string
	RateBps     float64       // link capacity in bytes/s
	OneWayDelay time.Duration // propagation delay
	LossProb    float64       // Bernoulli loss probability
	Backup      bool          // mark non-preferred (IS_BACKUP)
	// RateFn optionally overrides RateBps with a time-varying capacity.
	RateFn func(at time.Duration) float64
}

// ConnConfig tunes a connection; the zero value is LIA congestion
// control and an isolated connection. The model's other parameters
// (MSS 1460, the optimized receiver, a 4 MiB receive buffer) are
// fixed here.
type ConnConfig struct {
	// CongestionControl selects the algorithm by name: "lia"
	// (default), "olia", or "reno" (uncoupled per-subflow Reno).
	CongestionControl string
	// Store attaches the connection to a cross-connection shared-state
	// store: its schedulers then read and write the shared globals
	// G1..G8 and see the per-destination path statistics (XRTT, XLOST,
	// XDELIVERED, XQUAR) other attached connections have fed. Nil keeps
	// the connection isolated: globals stay connection-local and the
	// X-properties read 0.
	Store *SharedStore
}

// Network is a deterministic simulated network hosting MPTCP
// connections.
type Network struct {
	eng   *netsim.Engine
	inbox *netsim.Inbox
}

// NewNetwork creates a network with seeded randomness; equal seeds
// reproduce runs exactly.
func NewNetwork(seed int64) *Network {
	return &Network{eng: netsim.NewEngine(seed), inbox: netsim.NewInbox()}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.eng.Now() }

// At schedules fn at the given virtual time (application logic,
// workload generation, register updates).
func (n *Network) At(at time.Duration, fn func()) { n.eng.At(at, fn) }

// Run advances the simulation until the given virtual time.
func (n *Network) Run(until time.Duration) { n.eng.RunUntil(until) }

// RunLive advances the simulation like Run, but paced against the wall
// clock and open to live steering: closures injected through Do from
// other goroutines (e.g. the internal/ctl control plane) execute on
// the simulation goroutine between event slices. pace is virtual
// seconds per wall second (1 = real time, <= 0 = unpaced). The run
// ends at the deadline or when StopLive is called; either way the
// live phase is over when RunLive returns — pending and future Do
// calls fail with netsim.ErrInboxClosed rather than blocking forever.
func (n *Network) RunLive(until time.Duration, pace float64) {
	n.eng.RunLiveUntil(until, pace, n.inbox)
	n.inbox.Close()
}

// Do runs fn on the simulation goroutine and blocks until it has
// executed. It is the only safe way for a foreign goroutine to touch
// connections while RunLive is driving the network; it fails with
// netsim.ErrInboxClosed after StopLive or once RunLive has returned.
// Never call it from the simulation goroutine itself (use At instead).
func (n *Network) Do(fn func()) error { return n.inbox.Do(fn) }

// StopLive ends a live run: a concurrent RunLive returns at its next
// slice boundary and pending and future Do calls fail. Call it when
// tearing down a control-plane server; it is idempotent and safe from
// any goroutine.
func (n *Network) StopLive() { n.inbox.Close() }

// Conn is an MPTCP connection inside a simulated network, exposing the
// extended scheduling API of §3.2.
type Conn struct {
	inner *mptcp.Conn
	net   *Network
	// sched is the last core scheduler installed via SetScheduler (nil
	// when a raw mptcp.Scheduler or a supervisor wrapper is in place);
	// kept so Instrument can attach fault tracing in either call order.
	sched *core.Scheduler
	// sup is the supervisor installed by Supervise (nil when
	// unsupervised).
	sup *guard.Supervisor
}

// Dial creates a connection with one subflow per path.
func (n *Network) Dial(cfg ConnConfig, paths ...Path) (*Conn, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("progmp: a connection needs at least one path")
	}
	mcfg := mptcp.Config{Store: cfg.Store}
	switch cfg.CongestionControl {
	case "", "lia":
		// The model's default.
	case "olia":
		mcfg.CC = mptcp.OLIA{}
	case "reno":
		mcfg.CC = mptcp.Reno{}
	default:
		return nil, fmt.Errorf("progmp: unknown congestion control %q", cfg.CongestionControl)
	}
	specs := make([]mptcp.SubflowSpec, len(paths))
	for i, p := range paths {
		specs[i] = p.spec()
	}
	conn, err := mptcp.Dial(n.eng, mcfg, specs...)
	if err != nil {
		return nil, err
	}
	return &Conn{inner: conn, net: n}, nil
}

// spec converts the public path description to the model's.
func (p Path) spec() mptcp.SubflowSpec {
	rate := p.RateFn
	if rate == nil {
		rate = netsim.ConstantRate(p.RateBps)
	}
	var loss netsim.LossModel
	if p.LossProb > 0 {
		loss = netsim.BernoulliLoss{P: p.LossProb}
	}
	return mptcp.SubflowSpec{
		Path: netsim.PathConfig{
			Name:  p.Name,
			Rate:  rate,
			Delay: p.OneWayDelay,
			Loss:  loss,
		},
		Backup: p.Backup,
	}
}

// SetScheduler installs a loaded scheduler on the connection
// (per-connection scheduler choice, §3.2). It replaces any supervisor
// installed by Supervise; to replace the program under an existing
// supervisor — or to swap schedulers on a live connection at all — use
// HotSwap. Safe at any time: a swap requested mid-transfer applies
// atomically at a scheduler-execution boundary.
func (c *Conn) SetScheduler(s *Scheduler) {
	c.sched = s
	c.sup = nil
	c.inner.SetScheduler(s)
	if t := c.inner.Tracer(); t != nil && s != nil {
		s.InstrumentTrace(t, c.net.eng.Now)
	}
}

// HotSwap replaces the running scheduler with s on a live connection
// (the control plane's swap verb). On an unsupervised connection this
// is SetScheduler with swap tracing. On a supervised connection the
// supervisor is retargeted instead: s becomes the supervised program
// and the previously supervised program becomes the quarantine
// fallback, so if the swapped-in scheduler misbehaves the connection
// degrades back to what ran before the swap — not to native MinRTT.
// The swap lands atomically at a scheduler-execution boundary and
// emits a SCHED_SWAP trace event. It returns a description of the
// scheduler that was replaced.
func (c *Conn) HotSwap(s *Scheduler) (prev SchedulerInfo, err error) {
	if s == nil {
		return SchedulerInfo{}, fmt.Errorf("progmp: HotSwap needs a scheduler")
	}
	prev = c.SchedulerInfo()
	if t := c.inner.Tracer(); t != nil {
		s.InstrumentTrace(t, c.net.eng.Now)
	}
	if c.sup != nil {
		c.sup.Swap(s, c.sup.Inner())
		// Keep any fleet enrollment pointing at the program actually
		// running, so fleet blocks land on the right name.
		c.sup.ReEnroll(s.Name())
		c.sched = s
		c.inner.NoteSchedSwap()
		c.inner.Kick()
		return prev, nil
	}
	c.sched = s
	c.inner.SetScheduler(s)
	return prev, nil
}

// SchedulerInfo describes the connection's installed scheduling
// program for monitoring (the control plane's list verb).
type SchedulerInfo struct {
	// Name and Backend identify the loaded ProgMP program; Name is
	// "native" with an empty Backend when a raw Go scheduler (or no
	// program at all) is installed.
	Name    string
	Backend string
	// Supervised reports whether a guard.Supervisor wraps the program;
	// GuardState is its state machine position ("" unsupervised).
	Supervised bool
	GuardState string
}

// SchedulerInfo returns a snapshot of the installed scheduler.
func (c *Conn) SchedulerInfo() SchedulerInfo {
	info := SchedulerInfo{Name: "native"}
	if c.sched != nil {
		info.Name = c.sched.Name()
		info.Backend = c.sched.Backend().String()
	}
	if c.sup != nil {
		info.Supervised = true
		info.GuardState = c.sup.State().String()
		if c.sup.FleetBlocked() {
			info.GuardState = "fleet-blocked"
		}
	}
	return info
}

// SetRegister writes scheduler register i (R1..R8) — the application's
// channel for scheduling intents such as target bitrates or
// end-of-flow signals. An out-of-range index is rejected with an error
// (and counted as api.register_oob when metrics are attached).
func (c *Conn) SetRegister(i int, v int64) error { return c.inner.SetRegister(i, v) }

// Register reads scheduler register i. An out-of-range index is
// refused as SetRegister refuses it.
func (c *Conn) Register(i int) (int64, error) { return c.inner.Register(i) }

// Send enqueues n bytes without a scheduling intent.
func (c *Conn) Send(n int) { c.inner.Send(n, 0) }

// SendWithIntent enqueues n bytes whose packets carry the scheduling
// intent prop (per-packet packet properties, §3.2).
func (c *Conn) SendWithIntent(n int, prop int64) { c.inner.Send(n, prop) }

// OnDeliver registers the receiver-side in-order delivery callback.
// OnAllAcked registers a one-shot callback fired when the send buffer
// fully drains (flow completion on the sender side). Re-register from
// inside the callback to watch a later transfer.
func (c *Conn) OnAllAcked(fn func()) { c.inner.OnAllAcked(fn) }

// ReleaseDests drops the connection's shared-store destination
// references so idle records can be evicted once every connection
// using them has finished. Idempotent; a no-op without a store.
func (c *Conn) ReleaseDests() { c.inner.ReleaseDests() }

func (c *Conn) OnDeliver(fn func(seq int64, size int, at time.Duration)) {
	c.inner.Receiver().OnDeliver(fn)
}

// AllAcked reports whether every sent byte has been acknowledged.
func (c *Conn) AllAcked() bool { return c.inner.AllAcked() }

// SubflowStats describes one subflow for monitoring.
type SubflowStats struct {
	Name            string
	Established     bool
	Closed          bool
	Backup          bool
	SRTT            time.Duration
	Cwnd            float64
	BytesSent       int64
	PktsSent        int64
	Retransmissions int64
	ThroughputBps   int64
}

// Subflows returns a snapshot of the connection's subflows.
func (c *Conn) Subflows() []SubflowStats {
	var out []SubflowStats
	for _, s := range c.inner.Subflows() {
		out = append(out, SubflowStats{
			Name:            s.Name(),
			Established:     s.Established(),
			Closed:          s.Closed(),
			Backup:          s.Backup(),
			SRTT:            s.SRTT(),
			Cwnd:            s.Cwnd(),
			BytesSent:       s.BytesSent,
			PktsSent:        s.PktsSent,
			Retransmissions: s.Retransmissions,
			ThroughputBps:   s.Throughput(),
		})
	}
	return out
}

// PathManager re-exports the path-manager building block.
type PathManager = mptcp.PathManager

// EnablePathManager attaches a path manager (§2.1 building block) that
// tears down subflows which stop making acknowledgement progress and
// promotes a backup when no preferred subflow remains.
func (c *Conn) EnablePathManager() *PathManager {
	return mptcp.NewPathManager(c.inner)
}

// Inner exposes the underlying model connection for advanced
// instrumentation (experiments, benchmarks).
func (c *Conn) Inner() *mptcp.Conn { return c.inner }

// ---- Cross-connection shared state ----

// SharedStore is the cross-connection shared-state store (see
// internal/xstate and docs/SHAREDSTATE.md): global registers G1..G8
// shared by every attached connection, plus per-destination path
// statistics — smoothed RTT, losses, delivered bytes, quarantine
// signals — keyed by path name, so one connection can steer around a
// path another connection observed degrading. Writes land in place,
// one epoch each; Load returns an immutable snapshot of one epoch.
// Safe for concurrent use from any goroutine.
type SharedStore = xstate.Store

// DestStats is the per-destination statistics record of a SharedStore.
type DestStats = xstate.DestStats

// NumSharedGlobals is the size of the shared global register file
// G1..G8, mirroring the per-connection registers R1..R8.
const NumSharedGlobals = runtime.NumGlobals

// NewSharedStore creates an empty shared-state store at epoch 0.
// Attach it to connections via ConnConfig.Store; every connection
// dialed with the same store shares one view.
func NewSharedStore() *SharedStore { return xstate.NewStore() }

// ---- Observability ----

// Tracer records scheduler-decision events into a fixed-size ring
// buffer (see internal/obs and docs/OBSERVABILITY.md). A nil *Tracer is
// a valid no-op sink.
type Tracer = obs.Tracer

// TraceEvent is one recorded trace event.
type TraceEvent = obs.Event

// Metrics is a registry of named counters, gauges and histograms.
type Metrics = obs.Registry

// NewTracer allocates a tracer with the given ring capacity (<= 0
// selects the default of 65536 events).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsAggregator merges metric registries across connections into a
// fleet-wide view: counters sum, gauges keep last/min/max/sum,
// histograms merge bucket-by-bucket. Attach one labeled registry per
// connection; see docs/OBSERVABILITY.md ("Fleet aggregation").
type MetricsAggregator = obs.Aggregator

// MetricsLabels identifies one registry within an aggregator.
type MetricsLabels = obs.Labels

// MetricsTimeSeries records aggregated samples into a bounded ring.
type MetricsTimeSeries = obs.TimeSeries

// NewMetricsAggregator returns an empty fleet aggregator.
func NewMetricsAggregator() *MetricsAggregator { return obs.NewAggregator() }

// NewMetricsTimeSeries creates a time-series recorder over agg with the
// given ring capacity (<= 0 selects the default of 4096 samples).
func NewMetricsTimeSeries(agg *MetricsAggregator, capacity int) *MetricsTimeSeries {
	return obs.NewTimeSeries(agg, capacity)
}

// WriteTraceJSONL streams events as one JSON object per line.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return obs.WriteJSONL(w, events)
}

// Instrument attaches a tracer and/or a metrics registry to the
// connection. Either may be nil; call it before traffic starts. The
// registry also receives the simulation engine's event metrics, the
// installed scheduler's fault tracing, and — when the connection is
// supervised — the supervisor's transition events and metrics.
func (c *Conn) Instrument(t *Tracer, m *Metrics) {
	c.inner.Instrument(t, m)
	if m != nil {
		c.net.eng.Instrument(m)
	}
	if c.sched != nil && t != nil {
		c.sched.InstrumentTrace(t, c.net.eng.Now)
	}
	if c.sup != nil {
		c.sup.Instrument(t, c.inner.TraceConnID(), m)
	}
}

// ---- Scheduler supervision (graceful degradation) ----

// Supervisor wraps a scheduler with panic recovery, strikes on the
// actions the connection refused, stall detection and graceful
// degradation to a trusted fallback; see
// internal/guard and docs/ROBUSTNESS.md.
type Supervisor = guard.Supervisor

// SchedulerExec is the minimal scheduler execution interface Supervise
// accepts: loaded ProgMP programs (*Scheduler) and native Go
// schedulers alike.
type SchedulerExec = guard.Scheduler

// Supervise installs s under supervision: panics are recovered,
// actions the connection refused counted, stalls detected, and on
// repeated strikes the connection degrades to native MinRTT with
// exponential-backoff probation. The policy is fixed: three strikes, a
// 500 ms first quarantine doubling to 30 s, eight clean probation
// executions (docs/ROBUSTNESS.md). The supervisor's clock, watchdog and
// wake hooks are wired to the simulated network. Call after Instrument
// (or call Instrument later — either order works) so transitions are
// traced.
func (c *Conn) Supervise(s SchedulerExec) *Supervisor {
	sup := guard.New(s, guard.Config{
		Now:   c.net.eng.Now,
		After: func(d time.Duration, fn func()) { c.net.eng.After(d, fn) },
		Wake:  c.inner.Kick,
	})
	if cs, ok := s.(*core.Scheduler); ok {
		c.sched = cs
		if t := c.inner.Tracer(); t != nil {
			cs.InstrumentTrace(t, c.net.eng.Now)
		}
	} else {
		c.sched = nil
	}
	c.sup = sup
	c.inner.SetScheduler(sup)
	if t, m := c.inner.Tracer(), c.inner.Metrics(); t != nil || m != nil {
		sup.Instrument(t, c.inner.TraceConnID(), m)
	}
	return sup
}

// Supervisor returns the supervisor installed by Supervise (nil when
// the connection is unsupervised).
func (c *Conn) Supervisor() *Supervisor { return c.sup }

// ---- Fleet-wide quarantine ----

// Fleet is the failure-containment tier above per-connection
// supervision: when the same program quarantines on enough distinct
// connections, it is blocked fleet-wide — every enrolled connection
// degrades to native MinRTT and the control plane refuses to install
// the program without force — until a clean backoff window lifts the
// block. See internal/guard and docs/ROBUSTNESS.md.
type Fleet = guard.Fleet

// NewFleet creates a fleet quarantine tier clocked by this network: the
// clean-window lift timer runs on the simulation goroutine, like every
// supervisor transition. It blocks a program at 3 connections, for a
// 10 s first clean window doubling to 10 min.
func (n *Network) NewFleet() *Fleet {
	return guard.NewFleet(guard.FleetConfig{
		Now:   n.eng.Now,
		After: func(d time.Duration, fn func()) { n.eng.After(d, fn) },
	})
}

// JoinFleet enrolls the connection's supervisor in f under the given
// program name, so its quarantines count toward (and fleet blocks of
// that program apply to) this connection. The connection must be
// supervised first. HotSwap keeps the enrollment current automatically.
func (c *Conn) JoinFleet(f *Fleet, program string) error {
	if c.sup == nil {
		return fmt.Errorf("progmp: JoinFleet needs a supervised connection (call Supervise first)")
	}
	f.Enroll(program, c.sup)
	return nil
}

// ---- Chaos fault-injection harness ----

// ChaosResult summarizes one chaos soak run.
type ChaosResult = mptcp.ChaosResult

// ChaosScenarioNames lists the built-in chaos scenarios, sorted:
// bursty loss, link flaps, reorder/duplication, subflow death with
// revival, and the combined meltdown.
func ChaosScenarioNames() []string { return mptcp.ChaosScenarioNames() }

// ChaosScenarioDesc returns the one-line description of a scenario
// ("" for unknown names).
func ChaosScenarioDesc(name string) string { return mptcp.ChaosScenarios[name].Desc }

// RunChaos executes one seeded soak of the named chaos scenario with
// the given scheduler (nil: the native MinRTT reference scheduler) and
// returns the conservation verdict: a nil error means every byte was
// delivered exactly once, in order, and fully acknowledged.
func RunChaos(scenario string, seed int64, s *Scheduler) (ChaosResult, error) {
	sc, ok := mptcp.ChaosScenarios[scenario]
	if !ok {
		return ChaosResult{}, fmt.Errorf("progmp: unknown chaos scenario %q (have %v)",
			scenario, ChaosScenarioNames())
	}
	var fn func() mptcp.Scheduler
	if s != nil {
		fn = func() mptcp.Scheduler { return s }
	}
	return mptcp.RunChaos(sc, seed, fn)
}
