// Package obs is the unified observability layer: a fixed-size ring
// buffer of typed scheduler-decision events (the Tracer) and a registry
// of named counters/gauges/histograms (the Registry). It is the
// userspace analogue of the paper's "extensive proc-based interface
// with debugging and performance statistics" (§4.1), extended with
// per-decision event traces so that every transmitted packet's subflow
// choice is attributable to the scheduler execution — and the decision
// site inside the scheduler program — that produced it.
//
// Design constraints:
//
//   - Zero allocation on the hot path. Recording an event writes one
//     fixed-size Event into a preallocated ring; observing a metric is
//     one atomic add. When tracing is off, instrumented code pays a
//     single nil check (all obs types are nil-safe no-ops).
//   - Safe for concurrent use. Multiple connections may share a Tracer
//     or Registry; the ring is mutex-guarded, metrics are atomics.
//   - Bounded memory. The ring overwrites its oldest events; nothing
//     in this package grows with trace length.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind enumerates the typed trace events.
type EventKind uint8

// The event taxonomy (see docs/OBSERVABILITY.md).
const (
	EvNone      EventKind = iota
	EvExecStart           // scheduler execution begins (Exec = execution id, Aux = iteration within the trigger)
	EvExecEnd             // scheduler execution ends (Aux = number of recorded actions)
	EvPush                // packet transmitted (Seq, Sbf, Site; Aux = packet size)
	EvPop                 // packet popped from a queue (Seq, Site; Aux = queue id)
	EvDrop                // packet deliberately dropped (Seq, Site)
	EvEnqueue             // application enqueued data (Seq = first new seq, Aux = bytes)
	EvReinject            // packet became a reinjection candidate (Seq)
	EvAck                 // cumulative DATA_ACK processed (Sbf; Aux = meta cum-ack)
	EvLoss                // segment suspected lost (Seq, Sbf; Aux = subflow seq)
	EvRTO                 // retransmission timeout fired (Sbf, Seq; Aux = backoff count)
	EvSbfUp               // subflow established (Sbf)
	EvSbfDown             // subflow closed (Sbf)
	EvCwnd                // congestion window changed (Sbf; Aux = cwnd in milli-segments)
	EvDeliver             // receiver delivered in-order data (Seq; Aux = bytes)
	// Robustness events (package guard and the core fallback path).
	EvSchedFallback   // generic-VM fallback execution itself failed (actions discarded)
	EvGuardPanic      // supervised scheduler panicked (execution discarded)
	EvGuardBadAction  // the connection refused actions of an execution (Aux = count)
	EvGuardStall      // stall strike: work available, no actions for K executions
	EvGuardQuarantine // user scheduler quarantined (Aux = probation backoff in µs, Site = analyzer warnings at admission)
	EvGuardProbe      // probation began: user scheduler on trial
	EvGuardRestore    // user scheduler re-promoted after clean trials
	// Control-plane events (package ctl and the hot-swap path).
	EvSchedSwap   // scheduler replaced on a live connection (Aux: 0 immediate, 1 deferred to the execution boundary, 2 supervisor retarget)
	EvCtlSubEvict // trace subscription evicted after too many consecutive drops (Aux = consecutive drops at eviction)
	// Fleet-quarantine events (package guard's Fleet tier).
	EvFleetBlock // program fleet-blocked: quarantined on >= K connections (Aux = connections blocked, Site = K)
	EvFleetLift  // fleet block lifted after a clean backoff window (Aux = connections on probation)
	numEventKinds
)

var eventKindNames = [...]string{
	EvNone:      "NONE",
	EvExecStart: "EXEC_START",
	EvExecEnd:   "EXEC_END",
	EvPush:      "PUSH",
	EvPop:       "POP",
	EvDrop:      "DROP",
	EvEnqueue:   "ENQUEUE",
	EvReinject:  "REINJECT",
	EvAck:       "ACK",
	EvLoss:      "LOSS",
	EvRTO:       "RTO",
	EvSbfUp:     "SBF_UP",
	EvSbfDown:   "SBF_DOWN",
	EvCwnd:      "CWND",
	EvDeliver:   "DELIVER",

	EvSchedFallback:   "SCHED_FALLBACK",
	EvGuardPanic:      "GUARD_PANIC",
	EvGuardBadAction:  "GUARD_BAD_ACTION",
	EvGuardStall:      "GUARD_STALL",
	EvGuardQuarantine: "GUARD_QUARANTINE",
	EvGuardProbe:      "GUARD_PROBE",
	EvGuardRestore:    "GUARD_RESTORE",

	EvSchedSwap:   "SCHED_SWAP",
	EvCtlSubEvict: "CTL_SUB_EVICT",
	EvFleetBlock:  "FLEET_BLOCK",
	EvFleetLift:   "FLEET_LIFT",
}

// String names the event kind as spelled in trace output.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// KindFromString resolves a trace-output spelling back to its kind; it
// returns EvNone, false for unknown names.
func KindFromString(s string) (EventKind, bool) {
	for k, name := range eventKindNames {
		if name == s && k != int(EvNone) {
			return EventKind(k), true
		}
	}
	return EvNone, false
}

// Event is one fixed-size trace record. Field meaning depends on Kind
// (see the kind constants); unused fields are -1 (Sbf, Seq) or 0.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Exec is the scheduler execution id the event belongs to
	// (0 outside any execution). Execution ids are unique per Tracer.
	Exec uint64
	// Seq is the packet meta sequence number, -1 when not applicable.
	Seq int64
	// Aux carries kind-specific payload (queue id, byte count, cwnd).
	Aux int64
	// Conn identifies the connection (assigned at attach time).
	Conn int32
	// Sbf is the subflow id, -1 when not applicable.
	Sbf int32
	// Site is the decision site inside the scheduler program that
	// recorded the action: the source line of the PUSH/POP/DROP on
	// every DSL back-end, 0 for native schedulers. Only PUSH/POP/DROP
	// events carry a site, with one reuse: GUARD_QUARANTINE carries the
	// static analyzer's warning count at admission (supervision events
	// have no source line).
	Site int32
	Kind EventKind
}

// Tracer records events into a fixed-size ring buffer. The zero value
// is not usable; construct with NewTracer. A nil *Tracer is a valid
// no-op sink: Record on nil returns immediately, so instrumented code
// needs no explicit enable flag.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever recorded; buf[total%len] is the next slot
	subs  []*Subscription

	execSeq atomic.Uint64
	connSeq atomic.Int32
}

// DefaultTracerCapacity is the ring size used when a non-positive
// capacity is requested (§4.1-style debugging wants history, not
// completeness).
const DefaultTracerCapacity = 1 << 16

// NewTracer allocates a tracer with capacity ring slots.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends ev to the ring, overwriting the oldest event when
// full. It is safe for concurrent use and allocates nothing. Live
// subscriptions whose filter passes ev receive a copy; a subscriber
// that cannot keep up loses events (counted per subscription) rather
// than slowing the data path,
// and one that loses EvictAfter events in a row without draining a
// single frame is evicted: its channel closes, and a CTL_SUB_EVICT
// event is recorded so the stall is attributable in the trace.
//
//progmp:hotpath
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(ev)
	t.mu.Unlock()
}

// record is Record under t.mu (eviction re-enters it for the evict
// event).
func (t *Tracer) record(ev Event) {
	t.buf[t.total%uint64(len(t.buf))] = ev
	t.total++
	for i := 0; i < len(t.subs); i++ {
		s := t.subs[i]
		if s.kinds&(1<<ev.Kind) == 0 || s.conn >= 0 && ev.Conn != s.conn {
			continue
		}
		select {
		case s.ch <- ev:
			s.consecDrops = 0
		default:
			s.dropped.Add(1)
			s.consecDrops++
			if s.evictAfter > 0 && s.consecDrops >= s.evictAfter {
				t.evictLocked(s, ev.At)
				i-- // t.subs shrank in place
			}
		}
	}
}

// evictLocked removes a permanently-stalled subscription under t.mu:
// close the channel (consumers see end-of-stream), mark it evicted, and
// record the eviction in the ring so the trace shows who fell behind.
func (t *Tracer) evictLocked(s *Subscription, at time.Duration) {
	if s.closed {
		return
	}
	s.closed = true
	s.evicted.Store(true)
	for i, sub := range t.subs {
		if sub == s {
			//progmp:ignore hotpath in-place shrink: len never grows past cap
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			break
		}
	}
	close(s.ch)
	t.buf[t.total%uint64(len(t.buf))] = Event{
		At: at, Kind: EvCtlSubEvict, Conn: -1, Seq: -1, Sbf: -1,
		Aux: int64(s.consecDrops),
	}
	t.total++
}

// Subscription is a live feed of the events recorded after
// SubscribeEvict that pass its filter. It decouples consumers from the
// recording hot path: the tracer never blocks on a subscriber, it
// drops instead — and evicts subscribers that stop draining entirely
// (see Record). Only events the filter passes reach the buffer, so
// drops and eviction count requested events alone.
type Subscription struct {
	t           *Tracer
	ch          chan Event
	dropped     atomic.Uint64
	evicted     atomic.Bool
	kinds       uint64 // bit k set: kind k passes; immutable
	conn        int32  // the connection that passes, < 0 for every one; immutable
	consecDrops int    // guarded by t.mu; reset by any successful send
	evictAfter  int    // immutable after SubscribeEvict; 0 disables eviction
	closed      bool   // guarded by t.mu
}

// A Subscription's kind mask has one bit per kind.
var _ [64 - numEventKinds]struct{}

// DefaultSubscriptionBuffer is the channel depth used when SubscribeEvict is
// asked for a non-positive buffer.
const DefaultSubscriptionBuffer = 4096

// DefaultSubscriptionEvictDrops is how many consecutive drops (with not
// a single frame delivered in between) evict a subscriber when
// SubscribeEvict is asked for a zero threshold. Combined with
// the buffer it means an evicted subscriber sat on a full queue for
// buffer+threshold events without consuming one — stalled, not slow.
// The threshold is deliberately large: a fast-forwarded simulation can
// record hundreds of thousands of events per wall millisecond, so a
// healthy consumer that merely loses the CPU for a moment must not
// trip it, while a truly stalled one (blocked on a dead socket) still
// does within a second or two of simulated traffic.
const DefaultSubscriptionEvictDrops = 1 << 20

// SubscribeEvict attaches a live feed of the events of kinds (every
// kind when kinds is empty) on connection conn (every connection when
// conn < 0), with the given channel buffer (<= 0 selects
// DefaultSubscriptionBuffer). After evictAfter
// consecutive drops the subscription is closed by the tracer (0
// selects DefaultSubscriptionEvictDrops; a negative value disables eviction entirely
// for callers that prefer unbounded dropping). The caller must drain
// Events() promptly or accept drops, and must Close the subscription
// when done. Safe on nil (returns nil; a nil *Subscription is a no-op
// whose Events channel is nil).
func (t *Tracer) SubscribeEvict(buf, evictAfter int, kinds []EventKind, conn int32) *Subscription {
	if t == nil {
		return nil
	}
	if buf <= 0 {
		buf = DefaultSubscriptionBuffer
	}
	if evictAfter == 0 {
		evictAfter = DefaultSubscriptionEvictDrops
	} else if evictAfter < 0 {
		evictAfter = 0
	}
	s := &Subscription{t: t, ch: make(chan Event, buf), conn: conn, evictAfter: evictAfter}
	for _, k := range kinds {
		s.kinds |= 1 << k
	}
	if len(kinds) == 0 {
		s.kinds = ^uint64(0)
	}
	t.mu.Lock()
	t.subs = append(t.subs, s)
	t.mu.Unlock()
	return s
}

// Evicted reports whether the tracer closed this subscription for
// falling too far behind (see SubscribeEvict). Safe on nil.
func (s *Subscription) Evicted() bool {
	if s == nil {
		return false
	}
	return s.evicted.Load()
}

// Events returns the subscription's feed. The channel is closed by
// Close. Safe on nil (returns nil).
func (s *Subscription) Events() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns how many events this subscription lost to a full
// buffer. Safe on nil.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close detaches the subscription and closes its channel. Idempotent
// and safe on nil. Closing under the tracer lock guarantees no Record
// is concurrently sending on the channel.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, sub := range s.t.subs {
		if sub == s {
			s.t.subs = append(s.t.subs[:i], s.t.subs[i+1:]...)
			break
		}
	}
	close(s.ch)
}

// NextExecID returns a fresh scheduler-execution id (ids start at 1;
// 0 means "outside any execution"). Safe on nil.
//
//progmp:hotpath
func (t *Tracer) NextExecID() uint64 {
	if t == nil {
		return 0
	}
	return t.execSeq.Add(1)
}

// RegisterConn returns a fresh connection id for event labelling.
// Safe on nil (returns 0).
func (t *Tracer) RegisterConn() int32 {
	if t == nil {
		return 0
	}
	return t.connSeq.Add(1)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events, oldest first. The result is a
// copy; the tracer may keep recording concurrently.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	cap64 := uint64(len(t.buf))
	if n <= cap64 {
		out := make([]Event, n)
		copy(out, t.buf[:n])
		return out
	}
	// Wrapped: oldest retained event is at total%cap.
	out := make([]Event, cap64)
	start := n % cap64
	copy(out, t.buf[start:])
	copy(out[cap64-start:], t.buf[:start])
	return out
}
