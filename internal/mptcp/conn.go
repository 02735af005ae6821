package mptcp

import (
	"fmt"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/xstate"
)

// Scheduler is the execution interface of the scheduling block: one
// run against an environment snapshot. core.Scheduler (ProgMP programs
// on any back-end) and the native reference schedulers in package
// sched both implement it.
//
// The connection relies on one contract: an execution's effects — its
// actions and its register and global writes — are a function of the
// Env and the registers. A core.Scheduler stamps its program's
// quiescence certificate on the Env (runtime.Env.Cert), and the
// connection skips the executions the certificate proves inert, so a
// wrapper that passes the Env to a stamping scheduler takes its
// certificate on: a wrapper that acts beyond it must clear Env.Cert,
// and one that switches programs by itself must install them through
// SetScheduler or be supervised (a supervised connection never skips).
type Scheduler interface {
	// Exec runs one scheduler execution. The directive is a proof
	// obligation on every implementation: Conn.schedule invokes it on
	// the allocation-free hot path.
	//
	//progmp:hotpath
	Exec(env *runtime.Env)
}

// The TCP constants of every connection (Linux's defaults).
const (
	minRTO      = 200 * time.Millisecond // floor of the retransmission timeout
	initialCwnd = 10                     // segments
	tsqSegments = 2                      // floor of the TCP-small-queues budget per subflow
)

// execSampleShift sets the share of scheduler executions an
// instrumented connection times: one in 1<<execSampleShift (16).
const execSampleShift = 4

// timedExec reports whether an instrumented connection times the
// execution that took count n on its registry's conn.sched_execs
// counter. The counts fall into aligned blocks of 16, and each block
// times the one execution at an offset hashed from the block index.
// Every connection of a registry increments that counter, so the timed
// executions interleave the connections; the hashed offset keeps them
// from locking onto a fixed point of the scheduling passes, as a
// multiple-of-16 rule does when passes repeat the same shape
// (DESIGN.md, "Sampled decision latency").
//
//progmp:hotpath
//progmp:deterministic
func timedExec(n int64) bool {
	const mask = 1<<execSampleShift - 1
	i := uint64(n - 1)
	return i&mask == netsim.Mix64(i>>execSampleShift)&mask
}

// mss is the maximum segment payload.
const mss = 1460

// Config holds connection parameters.
type Config struct {
	// CC is the congestion-control algorithm (default LIA).
	CC CongestionControl
	// RcvBuf is the receiver buffer bounding the receive window
	// (default 4 MiB).
	RcvBuf int
	// ReceiverMode selects the legacy two-level queue behaviour or the
	// optimized §4.2 receiver (default optimized).
	ReceiverMode ReceiverMode
	// MaxSchedIterations bounds compressed executions per trigger
	// (default 4096). Setting it to 1 disables compressed executions
	// (ablation of the §4.1 optimization).
	MaxSchedIterations int
	// DisableTSQWake suppresses the TSQ-drain scheduler trigger so
	// scheduling becomes purely ACK-clocked (ablation of the trigger
	// model, Fig. 4).
	DisableTSQWake bool
	// Store attaches a cross-connection shared-state store: schedulers
	// gain the global registers G1..G8 and the per-destination path
	// statistics (XRTT, XLOST, XDELIVERED, XQUAR), and the connection
	// publishes its own RTT/loss/delivery observations keyed by subflow
	// name. Nil keeps the connection isolated — globals stay
	// connection-local and X-properties read 0.
	Store *xstate.Store
}

func (c *Config) applyDefaults() {
	if c.CC == nil {
		c.CC = LIA{}
	}
	if c.RcvBuf == 0 {
		c.RcvBuf = 4 << 20
	}
	if c.MaxSchedIterations == 0 {
		c.MaxSchedIterations = 4096
	}
}

// Conn is the sender-side meta socket of one MPTCP connection, wired
// to its receiver through the subflows' simulated links.
//
// Queue invariants presented to schedulers (pairwise disjoint views,
// §3.1): Q holds never-transmitted segments; QU holds transmitted,
// unacknowledged segments that are not reinjection candidates; RQ
// holds suspected-lost segments awaiting reinjection. A packet is in at
// most one of them (Packet.where, written by move alone). A successful
// PUSH moves a segment into QU automatically; cumulative DATA_ACKs
// remove segments from all queues and retire them from the window.
type Conn struct {
	eng *netsim.Engine
	cfg Config

	sched Scheduler
	// applied is sched's Applied method (guard.Supervisor has one), nil
	// when it has none. After each execution's apply it learns how many
	// actions applyActions refused; true asks for another iteration of
	// the pass, at the same virtual time, on a fresh snapshot.
	applied func(env *runtime.Env, refused int) (again bool)
	store   *xstate.Store

	// What persists from one execution to the next (§3.1); the snapshot
	// an execution runs on is scratch, in an arena. regs is the register
	// file, globals the global file G1..G8 (without a store it persists
	// here; with one, each execution copies it in from the store), cert
	// the quiescence certificate the last execution stamped.
	regs    [runtime.NumRegisters]int64
	globals [runtime.NumGlobals]int64
	cert    *runtime.Certificate

	subflows []*Subflow
	receiver *Receiver

	queues [inRQ + 1]packetList // Q, QU and RQ, indexed by place (the slot of nowhere stays empty)
	// sentAsked has bit i set once a program asked which QU packets
	// subflow i carried (unackedSource.SentPrefix); from then on QU
	// keeps that subflow's sent cursor through every insert.
	sentAsked uint64

	// win owns every packet not yet cumulatively acknowledged, indexed
	// by sequence number: win.base is the meta sequence number below
	// which everything is acked and win.end the next one to write, and
	// onAck retires packets as it advances, so the sender retains
	// O(in-flight + queued) packets.
	win  sendWindow
	rwnd int64 // latest advertised receive window (bytes)
	// Sequence-space window accounting (bytes): ackedOffset is the
	// stream offset below which everything is cumulatively acked;
	// maxSentEnd is the end offset of the highest segment ever
	// transmitted. New data must satisfy
	// end - ackedOffset <= rwnd; retransmissions always fit.
	ackedOffset int64
	maxSentEnd  int64
	bytesQueued int64 // total bytes enqueued so far (next Offset)

	// Snapshot arena (§4.1): recycled environment, subflow views and
	// lazily-materialized queue views, each queue bound to its list. A
	// connection that shares arenas (ShareArena) borrows one from arenas
	// for each scheduling pass; one that does not builds its own at its
	// first pass and keeps it in arena.
	arena  *runtime.Arena
	arenas *ArenaPool

	scheduling   bool
	schedPending bool
	// Scheduler swap deferred to the execution boundary (see
	// SetScheduler): applied at the top of the next schedule iteration
	// so no execution observes a half-installed program. The flag sits
	// with the other two, and destsReleased and connID with them, so
	// all five share a word: Conn must stay within 632 B, its 640 B size
	// class less the 8 B malloc header.
	hasPendingSched bool
	// destsReleased latches ReleaseDests so teardown paths may call it
	// from several places without double-releasing store references.
	destsReleased bool
	connID        int32 // the tracer's id for the connection (Instrument)
	pendingSched  Scheduler

	// Observability (nil when not instrumented; every handle below is
	// nil-safe, so the uninstrumented data path pays one nil check).
	tracer  *obs.Tracer
	curExec uint64 // scheduler execution id during schedule(); 0 outside

	m *connMetrics

	// Stats.
	SchedulerExecutions int64
	//progmp:ignore testonly bench/transfer.go reads it (the conservation oracle)
	TotalEnqueued int64

	onAllAcked func()
}

// connMetrics are the metric handles a connection resolves from its
// registry, behind one pointer: they cost an instrumented connection
// one word and a 96 B object, and an uninstrumented one a word that
// points at noMetrics, whose handles are all nil (nil-safe no-ops).
type connMetrics struct {
	reg                                                           *obs.Registry
	execs, pushes, pops, drops, reinjects, acks, enqueued, regOOB *obs.Counter
	// Hot-path latency histograms (ns): scheduler execution and action
	// application, sampled on one execution in 16 of the shared
	// conn.sched_execs count (timedExec). Timed only when resolved, so
	// the uninstrumented path pays one nil check and no clock reads.
	execNS, applyNS *obs.Histogram
}

var noMetrics connMetrics

// NewConn creates a connection with its receiver.
func NewConn(eng *netsim.Engine, cfg Config) *Conn {
	cfg.applyDefaults()
	c := &Conn{
		eng:  eng,
		cfg:  cfg,
		rwnd: int64(cfg.RcvBuf),
		m:    &noMetrics,
	}
	c.receiver = newReceiver(c, cfg.ReceiverMode, cfg.RcvBuf)
	c.store = cfg.Store
	return c
}

// SharePages makes the connection's send window return the pages it
// drains to pool, and take new ones from it, instead of the allocator.
// Connections on one goroutine may share a pool; nil (the default)
// stops sharing.
func (c *Conn) SharePages(pool *PagePool) { c.win.pool = pool }

// ArenaPool lends execution arenas to the connections that share it
// (Conn.ShareArena). An arena is scratch: the snapshot one execution
// runs on, rebuilt for the next, while what persists between executions
// stays on each connection. Connections that take turns on one
// goroutine therefore need one arena between them, and a second only
// while one's scheduling pass runs inside another's (a guard fleet
// waking its connections from a quarantine). The zero value is an
// empty pool; it is not safe for concurrent use.
type ArenaPool struct{ free []*runtime.Arena }

// get lends an arena, a new one when the pool is empty.
func (p *ArenaPool) get() *runtime.Arena {
	if len(p.free) == 0 {
		return runtime.NewArena(nil)
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return a
}

// put takes a lent arena back.
func (p *ArenaPool) put(a *runtime.Arena) { p.free = append(p.free, a) }

// ShareArena makes the connection run its scheduler executions in an
// arena lent by pool for each scheduling pass, instead of in one of its
// own. Connections on one goroutine may share a pool; nil (the
// default) stops sharing. Call it between scheduling passes.
func (c *Conn) ShareArena(pool *ArenaPool) { c.arena, c.arenas = nil, pool }

// takeArena returns the arena a scheduling pass runs its executions in:
// one lent by the shared pool, or the connection's own.
//
//progmp:hotpath
func (c *Conn) takeArena() *runtime.Arena {
	if c.arenas != nil {
		//progmp:ignore hotpath amortized: the pool allocates only while more passes run at once than ever before
		return c.arenas.get()
	}
	if c.arena == nil {
		//progmp:ignore hotpath once per connection: its first scheduling pass builds its arena
		c.arena = runtime.NewArena(nil)
	}
	return c.arena
}

// giveArena ends a pass's use of a: a lent arena goes back to the pool.
//
//progmp:hotpath
func (c *Conn) giveArena(a *runtime.Arena) {
	if c.arenas != nil {
		//progmp:ignore hotpath amortized: the pool's slice grows only to the most arenas ever lent at once
		c.arenas.put(a)
	}
}

// Engine returns the simulation engine.
func (c *Conn) Engine() *netsim.Engine { return c.eng }

// Receiver returns the peer model.
//
//progmp:deterministic
func (c *Conn) Receiver() *Receiver { return c.receiver }

// Instrument attaches decision tracing and/or a metrics registry to
// the connection. Either argument may be nil to leave that facility
// off. Call it before traffic starts; handles are resolved once here
// (and in AddSubflow for later subflows) so the data path never does
// registry lookups. Multiple connections may share a tracer and a
// registry — events carry a per-tracer connection id, and metric
// names are namespaced per connection when an id is assigned.
func (c *Conn) Instrument(t *obs.Tracer, reg *obs.Registry) {
	c.tracer = t
	c.connID = t.RegisterConn()
	c.m = &noMetrics
	if reg != nil {
		c.m = &connMetrics{
			reg:       reg,
			execs:     reg.Counter("conn.sched_execs"),
			pushes:    reg.Counter("conn.pushes"),
			pops:      reg.Counter("conn.pops"),
			drops:     reg.Counter("conn.drops"),
			reinjects: reg.Counter("conn.reinjects"),
			acks:      reg.Counter("conn.acks"),
			enqueued:  reg.Counter("conn.enqueued_segments"),
			regOOB:    reg.Counter("api.register_oob"),
			execNS:    reg.Histogram("conn.sched_exec_ns"),
			applyNS:   reg.Histogram("conn.sched_apply_ns"),
		}
		c.receiver.instrument(reg)
		for _, s := range c.subflows {
			s.instrument(reg)
		}
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Conn) Tracer() *obs.Tracer { return c.tracer }

// TraceConnID returns the connection id assigned by the attached tracer
// (0 when tracing is off), so auxiliary instruments — e.g. a scheduler
// supervisor — can label their events with the same identity.
func (c *Conn) TraceConnID() int32 { return c.connID }

// Kick triggers a scheduling pass outside the normal trigger model.
// Supervision watchdogs use it to re-drive a connection whose scheduler
// went quiet with work pending (no ACK clock left to trigger it).
func (c *Conn) Kick() { c.schedule() }

// Metrics returns the attached metrics registry (nil when off).
func (c *Conn) Metrics() *obs.Registry { return c.m.reg }

// trace records one event with the connection's identity and the
// current scheduler execution id. The tracing-off cost is this nil
// check.
func (c *Conn) trace(kind obs.EventKind, sbf int32, seq, aux int64, site int32) {
	if c.tracer == nil {
		return
	}
	c.tracer.Record(obs.Event{
		At:   c.eng.Now(),
		Kind: kind,
		Conn: c.connID,
		Exec: c.curExec,
		Sbf:  sbf,
		Seq:  seq,
		Aux:  aux,
		Site: site,
	})
}

// SetScheduler installs the scheduling block. It is safe at any time,
// including mid-transfer: a swap requested while a scheduling pass is
// executing is deferred and applied atomically at the next execution
// boundary, so no execution ever observes a half-installed program.
// Replacing a running scheduler emits a SCHED_SWAP trace event and
// immediately triggers a scheduling pass under the new program. (The
// paper exposes scheduler choice per connection, §3.2; the control
// plane extends it to live hot-swap, see internal/ctl.)
func (c *Conn) SetScheduler(s Scheduler) {
	if c.scheduling {
		c.pendingSched = s
		c.hasPendingSched = true
		c.schedPending = true
		return
	}
	swapped := c.sched != nil && s != nil && c.sched != s
	c.install(s)
	if swapped {
		c.trace(obs.EvSchedSwap, -1, -1, 0, 0)
		c.schedule()
	}
}

// applyPendingSched commits a deferred scheduler swap at an execution
// boundary inside schedule().
func (c *Conn) applyPendingSched() {
	prev := c.sched
	c.install(c.pendingSched)
	c.pendingSched = nil
	c.hasPendingSched = false
	if prev != nil && c.sched != nil && prev != c.sched {
		c.trace(obs.EvSchedSwap, -1, -1, 1, 0)
	}
}

// install makes s the scheduler and resolves its Applied method. The
// previous program's quiescence certificate goes with it.
func (c *Conn) install(s Scheduler) {
	c.sched = s
	c.cert = nil
	c.applied = nil
	if h, ok := s.(interface {
		Applied(*runtime.Env, int) bool
	}); ok {
		//progmp:ignore hotpath once per install, not per execution: the bound method is resolved here so the pass calls one word
		c.applied = h.Applied
	}
}

// NoteSchedSwap records a SCHED_SWAP trace event for scheduler
// replacements applied inside a wrapper the connection cannot observe
// through SetScheduler — e.g. a guard.Supervisor retargeting its
// supervised program during a control-plane hot-swap.
func (c *Conn) NoteSchedSwap() { c.trace(obs.EvSchedSwap, -1, -1, 2, 0) }

// SetRegister writes a scheduler register through the extended
// scheduling API (§3.2) and triggers a scheduling pass so the new
// intent takes effect immediately. An out-of-range index is rejected
// with an error (and counted as api.register_oob when a metrics
// registry is attached).
func (c *Conn) SetRegister(i int, v int64) error {
	if err := checkRegister(i); err != nil {
		c.m.regOOB.Add(1)
		return err
	}
	c.regs[i] = v
	c.schedule()
	return nil
}

// checkRegister refuses a scheduler register index outside [0, 8).
func checkRegister(i int) error {
	if i < 0 || i >= runtime.NumRegisters {
		return fmt.Errorf("mptcp: register index %d out of range [0, %d)", i, runtime.NumRegisters)
	}
	return nil
}

// Register reads a scheduler register. An out-of-range index is
// refused as SetRegister refuses it.
func (c *Conn) Register(i int) (int64, error) {
	if err := checkRegister(i); err != nil {
		c.m.regOOB.Add(1)
		return 0, err
	}
	return c.regs[i], nil
}

// AddSubflow registers a subflow; the path manager establishes it at
// cfg.StartAt.
func (c *Conn) AddSubflow(cfg SubflowConfig) (*Subflow, error) {
	if len(c.subflows) >= runtime.MaxSubflows {
		return nil, fmt.Errorf("mptcp: subflow limit %d reached", runtime.MaxSubflows)
	}
	if cfg.Link == nil {
		return nil, fmt.Errorf("mptcp: subflow %q has no link", cfg.Name)
	}
	s := new(Subflow)
	c.addSubflow(s, cfg)
	return s, nil
}

// addSubflow makes s the next subflow, over cfg, and schedules its
// establish event.
func (c *Conn) addSubflow(s *Subflow, cfg SubflowConfig) {
	s.init(c, len(c.subflows), cfg)
	c.subflows = append(c.subflows, s)
	c.receiver.addSubflow()
	c.eng.Post(cfg.StartAt, s, evEstablish, 0, 0, 0)
}

// Reset rewires the connection in place as the world Dial builds from
// specs on its engine, which the caller has reset first
// (netsim.Engine.Reset): the transfer, the registers, the arena, the
// receiver and every subflow start afresh, and the establish events are
// scheduled as Dial schedules them, so the trajectory from here is the
// fresh world's. What the application attached stays — the config, the
// scheduler (with whatever state it keeps itself), the instrumentation
// and the delivery hooks; OnAllAcked's one-shot callback does not, nor
// anything it scheduled on the engine, such as a PathManager's checks —
// and so does the memory the connection grew: its windows, queues and
// rings, its subflows and their links, which Reset reconfigures, so it
// is for connections whose links are their own, as Dial's are. Call it
// between events, never from inside one. Dial calls it on a fresh
// connection.
func (c *Conn) Reset(specs ...SubflowSpec) error {
	if len(specs) > runtime.MaxSubflows {
		return fmt.Errorf("mptcp: subflow limit %d reached", runtime.MaxSubflows)
	}
	c.ReleaseDests()
	c.regs, c.globals, c.cert = [runtime.NumRegisters]int64{}, [runtime.NumGlobals]int64{}, nil
	if c.arena != nil {
		c.arena.Reset()
	}
	c.receiver.reset()
	for i := range c.queues {
		c.queues[i].reset()
	}
	c.win.reset()
	c.sentAsked, c.rwnd = 0, int64(c.cfg.RcvBuf)
	c.ackedOffset, c.maxSentEnd, c.bytesQueued = 0, 0, 0
	c.scheduling, c.schedPending, c.hasPendingSched, c.pendingSched = false, false, false, nil
	c.destsReleased, c.curExec = false, 0
	c.SchedulerExecutions, c.TotalEnqueued, c.onAllAcked = 0, 0, nil

	old := c.subflows
	c.subflows = old[:0]
	for i, sp := range specs {
		cfg := SubflowConfig{Name: sp.Path.Name, Backup: sp.Backup, StartAt: sp.StartAt}
		if i >= len(old) {
			cfg.Link = netsim.NewLink(c.eng, sp.Path)
			if _, err := c.AddSubflow(cfg); err != nil {
				return err
			}
			continue
		}
		cfg.Link = old[i].link
		cfg.Link.Reset(sp.Path)
		c.addSubflow(old[i], cfg)
	}
	if len(old) > len(specs) {
		clear(old[len(specs):]) // the subflows the new world has no use for
	}
	return nil
}

// Subflows returns all subflows (including closed ones; check
// Established/Closed).
func (c *Conn) Subflows() []*Subflow { return c.subflows }

// Send enqueues n bytes with the given per-packet scheduling intent
// (§3.2 packet properties), split into MSS-sized segments, and
// triggers the scheduler (Fig. 4: packets arrive in Q).
func (c *Conn) Send(n int, prop int64) {
	now := c.eng.Now()
	firstSeq, bytes := c.win.end, int64(n)
	for n > 0 {
		size := mss
		if n < size {
			size = n
		}
		n -= size
		pkt := c.win.push()
		pkt.Size = size
		pkt.Offset = c.bytesQueued
		pkt.Prop = prop
		pkt.EnqueuedAt = now
		c.bytesQueued += int64(size)
		c.move(pkt, inQ, true)
		c.TotalEnqueued++
	}
	c.m.enqueued.Add(c.win.end - firstSeq)
	c.trace(obs.EvEnqueue, -1, firstSeq, bytes, 0)
	c.schedule()
}

// QueuedSegments returns the Q length.
func (c *Conn) QueuedSegments() int { return c.queues[inQ].len() }

// UnackedSegments returns the number of transmitted, unacked segments
// (QU and RQ together).
func (c *Conn) UnackedSegments() int { return c.queues[inQU].len() + c.queues[inRQ].len() }

// reinjectSegments returns the RQ length.
func (c *Conn) reinjectSegments() int { return c.queues[inRQ].len() }

// AllAcked reports whether every enqueued byte has been cumulatively
// acknowledged.
//
//progmp:deterministic
func (c *Conn) AllAcked() bool {
	return c.QueuedSegments() == 0 && c.UnackedSegments() == 0 && c.win.end > 0
}

// OnAllAcked registers a callback fired when the send buffer fully
// drains (used for flow-completion-time measurements).
func (c *Conn) OnAllAcked(fn func()) { c.onAllAcked = fn }

// ReleaseDests drops the connection's shared-store destination
// references (one per subflow, acquired at AddSubflow). Call it when
// the connection finishes: the store only evicts idle per-destination
// records once every referencing connection has released them, so a
// fleet that retires connections without releasing leaks dest records
// across churn. Idempotent; a no-op without an attached store.
//
//progmp:deterministic
func (c *Conn) ReleaseDests() {
	if c.store == nil || c.destsReleased {
		return
	}
	c.destsReleased = true
	for _, s := range c.subflows {
		if s.destID >= 0 {
			c.store.ReleaseDest(s.destID)
		}
	}
}

// rwndFreeBytes is the remaining receive window for new data:
// advertised window minus the sequence space already in use between
// the cumulative ACK and the highest transmitted byte.
func (c *Conn) rwndFreeBytes() int64 {
	used := c.maxSentEnd - c.ackedOffset
	free := c.rwnd - used
	if free < 0 {
		free = 0
	}
	return free
}

// withinWindow reports whether transmitting pkt respects the receive
// window. Segments at or below the current send frontier are
// retransmissions of in-window data and always pass (TCP window
// semantics are sequence space, not bytes in flight).
func (c *Conn) withinWindow(pkt *Packet) bool {
	end := pkt.Offset + int64(pkt.Size)
	if end <= c.maxSentEnd {
		return true
	}
	return end-c.ackedOffset <= c.rwnd
}

// noteTransmitted advances the send frontier.
func (c *Conn) noteTransmitted(pkt *Packet) {
	if end := pkt.Offset + int64(pkt.Size); end > c.maxSentEnd {
		c.maxSentEnd = end
	}
}

// inFlightElsewhere reports whether the packet numbered metaSeq has an
// un-SACKed transmission on a live subflow other than except.
func (c *Conn) inFlightElsewhere(metaSeq int64, except *Subflow) bool {
	for _, s := range c.subflows {
		if s == except || !s.usable() {
			continue
		}
		for seq := s.sent.base; seq < s.sent.end(); seq++ {
			if rec := s.sent.slot(seq); rec.live() && rec.metaSeq == metaSeq {
				return true
			}
		}
	}
	return false
}

// returnToSendQ puts a no-longer-in-flight packet back into Q so any
// scheduler — including ones that never read RQ — will eventually
// deliver it.
func (c *Conn) returnToSendQ(pkt *Packet) {
	c.move(pkt, inQ, false)
	c.schedule()
}

// addReinject queues pkt for reinjection (it moves to the back of RQ
// unless already there) and triggers the scheduler (Fig. 4: loss
// events). A nil pkt is one the cumulative ACK has retired: nothing
// happens.
func (c *Conn) addReinject(pkt *Packet) {
	if pkt == nil {
		return
	}
	if pkt.where != inRQ {
		c.move(pkt, inRQ, true)
		c.m.reinjects.Add(1)
		c.trace(obs.EvReinject, -1, pkt.Seq, 0, 0)
	}
	c.schedule()
}

// onSubflowEstablished fires the scheduler (Fig. 4: subflow events).
func (c *Conn) onSubflowEstablished(s *Subflow) {
	c.trace(obs.EvSbfUp, int32(s.id), -1, 0, 0)
	c.schedule()
}

// onSubflowClosed fires the scheduler after a subflow teardown.
func (c *Conn) onSubflowClosed(s *Subflow) {
	c.trace(obs.EvSbfDown, int32(s.id), -1, 0, 0)
	c.schedule()
}

// onAck processes the meta-level part of an acknowledgement: the
// cumulative DATA_ACK removes packets from all queues (§3.1), and the
// advertised window is refreshed. It then triggers the scheduler.
func (c *Conn) onAck(metaCumAck int64, rwnd int64, s *Subflow) {
	c.rwnd = rwnd
	c.m.acks.Add(1)
	c.trace(obs.EvAck, int32(s.id), -1, metaCumAck, 0)
	if metaCumAck > c.win.base {
		// The window ends at the next sequence number to write, so an
		// ACK beyond it stops there.
		for c.win.len() > 0 && c.win.base < metaCumAck {
			pkt := c.win.at(c.win.base)
			if end := pkt.Offset + int64(pkt.Size); end > c.ackedOffset {
				c.ackedOffset = end
			}
			c.move(pkt, nowhere, false)
			c.win.pop()
		}
		if c.AllAcked() && c.onAllAcked != nil {
			cb := c.onAllAcked
			c.onAllAcked = nil
			//progmp:ignore hotpath the application's completion callback, once per drained send buffer
			cb()
		}
	}
	c.schedule()
}

// schedule runs the scheduling block: build a snapshot, execute, apply
// the action queue, and repeat while the scheduler makes progress
// (compressed executions, §4.1). Reentrant triggers coalesce.
//
// The zero-alloc contract (docs/PERFORMANCE.md) covers snapshot build,
// scheduler execution, action application and transmission; the epoch
// publish (Store.SetGlobals) sits outside it and is suppressed below
// with its reason.
//
//progmp:hotpath
func (c *Conn) schedule() {
	if c.sched == nil {
		return
	}
	if c.scheduling {
		c.schedPending = true
		return
	}
	c.scheduling = true
	arena := c.takeArena()
	defer func() {
		c.scheduling = false
		c.giveArena(arena)
		// A swap requested in the final iteration still lands before
		// the pass returns (the execution boundary).
		if c.hasPendingSched {
			c.applyPendingSched()
		}
	}()
	for iter := 0; iter < c.cfg.MaxSchedIterations; iter++ {
		if c.hasPendingSched {
			c.applyPendingSched()
			if c.sched == nil {
				return
			}
		}
		c.schedPending = false
		// Quiescence: the last execution stamped its program's
		// certificate, and while it holds on the connection's facts the
		// program provably does nothing, so the pass ends here without
		// a snapshot. A supervised connection runs every execution: its
		// guard counts them.
		if c.cert != nil && c.applied == nil && c.cert.Holds(c.facts()) {
			if VerifyQuiescence != nil {
				//progmp:ignore hotpath test-only: VerifyQuiescence is set by tests alone
				c.verifyQuiet(arena)
			}
			return
		}
		env := c.buildEnv(arena)
		if c.tracer != nil {
			c.curExec = c.tracer.NextExecID()
			c.trace(obs.EvExecStart, -1, -1, int64(iter), 0)
		}
		var progress bool
		var refused int
		c.SchedulerExecutions++
		if n := c.m.execs.Inc(); c.m.execNS != nil && timedExec(n) {
			// time.Now is allocation-free, so the instrumented hot path
			// stays 0 allocs/op (benchmark-gated). t1 ends the execution
			// and starts the apply, so both histograms count alike.
			t0 := time.Now()
			c.sched.Exec(env)
			t1 := time.Now()
			progress, refused = c.applyActions(env)
			t2 := time.Now()
			c.m.execNS.Observe(int64(t1.Sub(t0)))
			c.m.applyNS.Observe(int64(t2.Sub(t1)))
		} else {
			c.sched.Exec(env)
			progress, refused = c.applyActions(env)
		}
		c.cert = env.Cert
		//progmp:ignore hotpath guard.Supervisor.Applied, allocation-free in steady state (TestSupervisedScheduleZeroAlloc)
		if c.applied != nil && c.applied(env, refused) {
			c.schedPending = true
		}
		if c.tracer != nil {
			c.trace(obs.EvExecEnd, -1, -1, int64(len(env.Actions)), 0)
			c.curExec = 0
		}
		if !progress && !c.schedPending {
			return
		}
	}
}

// buildEnv snapshots the scheduling environment (§3.1). Properties are
// immutable for the execution; side effects are collected in the action
// queue. The snapshot is allocation-free in steady state: views live in
// the connection's arena and materialize lazily as the scheduler
// touches them. The three lists are the three disjoint views, so each
// queue binds straight from its own list. The snapshot is built in a,
// over the connection's register and global files.
func (c *Conn) buildEnv(a *runtime.Arena) *runtime.Env {
	now := c.eng.Now()
	rwndFree := c.rwndFreeBytes()

	// Subflow views are small and volatile (cwnd, RTT, in-flight move
	// with every event), so they are always refilled.
	n := 0
	for _, s := range c.subflows {
		if s.usable() {
			n++
		}
	}
	views := a.BindSubflows(n)
	i := 0
	for _, s := range c.subflows {
		if !s.usable() {
			continue
		}
		v := views[i]
		i++
		*v = runtime.SubflowView{
			Handle:        runtime.SubflowHandle(s.id + 1),
			RWndFreeBytes: rwndFree,
		}
		v.Ints[runtime.SbfID] = int64(s.id)
		v.Ints[runtime.SbfRTT] = s.srtt.Microseconds()
		v.Ints[runtime.SbfRTTAvg] = s.avgRTT().Microseconds()
		v.Ints[runtime.SbfRTTVar] = s.rttvar.Microseconds()
		v.Ints[runtime.SbfCwnd] = int64(s.cwnd)
		v.Ints[runtime.SbfSkbsInFlight] = s.wireInFlight()
		v.Ints[runtime.SbfQueued] = s.queuedSegments()
		v.Ints[runtime.SbfThroughput] = s.Throughput()
		v.Ints[runtime.SbfMSS] = mss
		v.Ints[runtime.SbfLostSkbs] = int64(s.nLost)
		v.Ints[runtime.SbfRTO] = s.currentRTO().Microseconds()
		v.Bools[runtime.SbfLossy] = s.inRecovery
		v.Bools[runtime.SbfTSQThrottled] = s.tsqThrottled()
		v.Bools[runtime.SbfIsBackup] = s.backup
		v.Ints[runtime.SbfLinkQueued] = int64(s.link.Fwd.QueuedBytes())
	}

	for id := runtime.QueueSend; id <= runtime.QueueReinject; id++ {
		l := &c.queues[placeOf(id)]
		l.now = now
		var src runtime.QueueSource = l
		if id == runtime.QueueUnacked {
			src = (*unackedSource)(c)
		}
		a.BindQueue(id, src, l.len(), false)
	}

	a.BeginExec()
	env := a.Env()
	env.Regs, env.Globals = &c.regs, &c.globals
	if c.store != nil {
		// Without a store the connection's global file persists across
		// executions, so globals degrade to connection-local registers.
		c.copyShared(views, env.Globals)
	}
	return env
}

// copyShared copies the shared store's part of the environment — the
// X-properties of every bound subflow view and the global register
// file — inside one read section, and redoes the whole copy when a
// write overlapped it, so the execution sees one coherent epoch. The
// read takes no lock, allocates nothing and writes no shared memory.
func (c *Conn) copyShared(views []*runtime.SubflowView, globals *[runtime.NumGlobals]int64) {
	st := c.store
	for {
		seq := st.ReadBegin()
		for _, v := range views {
			v.Ints[runtime.SbfXRTT], v.Ints[runtime.SbfXLost], v.Ints[runtime.SbfXDelivered], v.Ints[runtime.SbfXQuar] =
				st.ReadDest(c.subflows[v.Handle-1].destID)
		}
		st.ReadGlobals(globals)
		if st.ReadValid(seq) {
			return
		}
	}
}

// applyActions commits the execution's action queue to the connection
// state. It reports whether the scheduler made progress (transmitted
// or deliberately dropped something) and how many actions it refused.
// A POP commits nothing: a packet leaves its queue when a PUSH
// transmits it or a DROP moves it, so a popped packet that is neither
// stays where it was (graceful: no packet loss on scheduler mistakes).
//
// It is the one validator of actions. Judged against each packet's
// place when the execution began, it refuses a handle that resolves to
// no packet (acked or forged), a PUSH to a missing or unusable subflow,
// a POP naming a queue the packet was not in, a DROP of a packet in no
// queue, and an unknown kind. Graceful non-effects are not refusals: a
// DROP of never-sent data or of a QU packet, a PUSH the receive window
// holds back.
func (c *Conn) applyActions(env *runtime.Env) (progress bool, refused int) {
	pass := uint32(c.SchedulerExecutions)
	for _, a := range env.Actions {
		pkt := c.pktOf(a.Packet)
		if pkt == nil {
			refused++
			continue
		}
		switch a.Kind {
		case runtime.ActionPop:
			if pkt.placeAt(pass) != placeOf(a.Queue) {
				refused++
			}
			if pkt.where != placeOf(a.Queue) {
				continue // not in the queue the action names (any more)
			}
			c.m.pops.Add(1)
			c.trace(obs.EvPop, -1, pkt.Seq, int64(a.Queue), a.Site)
		case runtime.ActionPush:
			sbf := c.sbfOf(a.Subflow)
			if sbf == nil || !sbf.usable() {
				refused++
				continue
			}
			if sbf.transmit(pkt) {
				progress = true
				// A transmitted segment is tracked as unacknowledged,
				// wherever it was.
				if pkt.where != inQU {
					c.move(pkt, inQU, false)
				}
				c.m.pushes.Add(1)
				c.trace(obs.EvPush, int32(sbf.id), pkt.Seq, int64(pkt.Size), a.Site)
			}
		case runtime.ActionDrop:
			switch {
			case pkt.placeAt(pass) == nowhere:
				refused++
				continue
			case pkt.SentCount == 0:
				// Dropping never-transmitted data would lose bytes of the
				// stream: it stays in Q (packets must not be lost by
				// design, §3.3) and counts as no progress.
				continue
			case pkt.where == inQ: // transmitted before its subflow closed
				c.move(pkt, nowhere, false)
			case pkt.where == inRQ: // no reinjection candidate any more, unacknowledged still
				c.move(pkt, inQU, false)
			default:
				continue
			}
			progress = true
			c.m.drops.Add(1)
			c.trace(obs.EvDrop, -1, pkt.Seq, 0, a.Site)
		default:
			refused++
		}
	}
	// Publish the execution's GSET writes as one batched epoch. Only the
	// dirty registers land, so concurrent connections writing disjoint
	// globals do not clobber each other.
	if c.store != nil {
		if dirty := env.DirtyGlobals(); dirty != 0 {
			c.store.SetGlobals(dirty, env.Globals)
			env.ClearDirtyGlobals()
		}
	}
	return progress, refused
}

// move takes pkt out of the queue it is in, if any, and puts it into
// to (nowhere: into none) — at the back, or at its sequence position.
// It is the only writer of Packet.where, and it stamps where the
// packet was before its first move of the current execution.
func (c *Conn) move(pkt *Packet, to place, back bool) {
	if pass := uint32(c.SchedulerExecutions); pkt.leftPass != pass {
		pkt.left, pkt.leftPass = pkt.where, pass
	}
	if pkt.where != nowhere {
		c.queues[pkt.where].remove(pkt, pkt.where != inRQ)
	}
	pkt.where = to
	switch {
	case to == nowhere:
	case back:
		c.queues[to].pushBack(pkt)
	default:
		c.queues[to].insertBySeq(pkt)
	}
	if c.sentAsked != 0 && to == inQU {
		c.lowerSentCursors(pkt)
	}
}

// pktOf resolves a handle to its packet, nil once acknowledged (or
// never written: a forged handle indexes outside the window).
func (c *Conn) pktOf(h runtime.PacketHandle) *Packet {
	return c.win.at(int64(h) - 1)
}

func (c *Conn) sbfOf(h runtime.SubflowHandle) *Subflow {
	idx := int(h) - 1
	if idx < 0 || idx >= len(c.subflows) {
		return nil
	}
	return c.subflows[idx]
}
