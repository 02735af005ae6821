// Package netsim is a deterministic discrete-event network simulator:
// virtual time, an event loop, and path models with serialization
// delay, propagation delay, jitter, drop-tail queueing, time-varying
// capacity and configurable loss processes. It substitutes for the
// paper's Mininet emulations and "in the wild" WiFi/LTE measurements
// (see DESIGN.md for the substitution rationale).
package netsim

import (
	"math/rand"
	"time"

	"progmp/internal/obs"
)

// Handler receives typed events. The kind and the three words mean
// whatever the poster and the handler agree on; the engine only carries
// them. Implementations are long-lived or recycled objects (a subflow, a
// path's flight record), so posting an event to one allocates nothing.
type Handler interface {
	HandleEvent(kind uint8, a, b, c int64)
}

// funcHandler adapts a plain callback to Handler. A func value is
// pointer-shaped, so the conversion does not box: At/After cost the
// caller's closure and nothing more.
type funcHandler func()

func (f funcHandler) HandleEvent(uint8, int64, int64, int64) { f() }

// event is one scheduled delivery of (kind, a, b, c) to h. Events are
// recycled: the engine owns every event it ever allocated (see
// Engine.pq), so nothing outside the engine may hold one except through
// a Timer, which checks seq before touching it.
type event struct {
	at  time.Duration
	seq uint64  // tie-breaker for stable ordering; unique per scheduling
	h   Handler // nil once cancelled or fired
	a   int64
	b   int64
	c   int64
	idx int32 // position in the heap while scheduled
	// kind is the handler's own discriminator.
	kind uint8
}

// Timer names one scheduling of an event and allows cancelling or
// moving it. The zero Timer is inert. Because events are recycled, a
// Timer is only ever valid for the scheduling that created it: once
// that event fired, was stopped or was rescheduled, the Timer's seq no
// longer matches and every operation through it is a no-op.
type Timer struct {
	ev  *event
	seq uint64
}

// pending reports whether the scheduling t names has not fired, been
// stopped or been superseded yet.
func (t Timer) pending() bool {
	return t.ev != nil && t.ev.seq == t.seq && t.ev.h != nil
}

// Stop cancels the timer; a stopped timer does not fire. Stop is
// idempotent and safe on a zero, fired or recycled timer. The cancelled
// event keeps its heap slot until its time comes, then returns to the
// free list unfired.
//
//progmp:hotpath
//progmp:deterministic
func (t Timer) Stop() {
	if t.pending() {
		t.ev.h = nil
	}
}

// Engine is a single-threaded discrete-event loop over virtual time.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now time.Duration
	seq uint64
	// pq[:n] is a binary min-heap on (at, seq); pq[n:] is the free list:
	// events that fired or were popped cancelled, waiting to be reused.
	// Popping moves the root to pq[n] and scheduling takes pq[n] back, so
	// recycling costs no extra storage and the slice only grows when more
	// events are pending at once than ever before.
	pq  []*event
	n   int
	rng *rand.Rand
	// flights is the free list of the paths' per-packet records; it is
	// engine-wide so that paths chained through Next share one.
	flights *flight

	// Observability handles (nil-safe no-ops when uninstrumented).
	mEvents  *obs.Counter
	mPending *obs.Gauge
}

// NewEngine returns an engine whose randomness is seeded for
// reproducible runs.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// NewEngineCompact returns an engine backed by a splitmix64 randomness
// source instead of math/rand's default ~5KB state table. Fleet runs
// host one engine per connection, so at 100k connections the default
// source alone costs ~500MB; splitmix64 is 8 bytes of state with
// distribution quality more than sufficient for loss/jitter draws.
// Determinism contract is per-constructor: a compact engine's draw
// sequence differs from NewEngine's for the same seed, but is itself
// fully reproducible.
func NewEngineCompact(seed int64) *Engine {
	return &Engine{rng: rand.New(&splitmix64{state: uint64(seed)})}
}

// splitmix64 is the 8-byte-state generator from Steele et al.'s
// "Fast splittable pseudorandom number generators"; it implements
// rand.Source64 so rand.Rand uses Uint64 directly.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// Mix64 advances one splitmix64 step from seed: a cheap, well-mixed
// way to derive independent per-connection seeds from a fleet seed.
//
//progmp:hotpath
//progmp:deterministic
func Mix64(seed uint64) uint64 {
	s := splitmix64{state: seed}
	return s.Uint64()
}

// Now returns the current virtual time.
//
//progmp:hotpath
//progmp:deterministic
func (e *Engine) Now() time.Duration { return e.now }

// Instrument resolves engine metric handles from reg: engine.events
// counts fired events, engine.pending gauges the heap size.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.mEvents = reg.Counter("engine.events")
	e.mPending = reg.Gauge("engine.pending")
}

// Rand exposes the engine's deterministic randomness source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Post schedules (kind, a, b, c) for delivery to h at absolute virtual
// time t (clamped to now). It is the allocation-free scheduling
// primitive: the event comes from the free list.
//
//progmp:hotpath
//progmp:deterministic
func (e *Engine) Post(t time.Duration, h Handler, kind uint8, a, b, c int64) Timer {
	if t < e.now {
		t = e.now
	}
	var ev *event
	if e.n < len(e.pq) {
		ev = e.pq[e.n]
	} else {
		//progmp:ignore hotpath amortized: the free list grows only when more events are pending than ever before
		ev = new(event)
		//progmp:ignore hotpath amortized: same growth as the event above
		e.pq = append(e.pq, ev)
	}
	*ev = event{at: t, seq: e.seq, h: h, a: a, b: b, c: c, idx: int32(e.n), kind: kind}
	e.seq++
	e.n++
	e.up(int(ev.idx))
	return Timer{ev: ev, seq: ev.seq}
}

// At schedules fn at absolute virtual time t (clamped to now).
//
//progmp:deterministic
func (e *Engine) At(t time.Duration, fn func()) Timer {
	return e.Post(t, funcHandler(fn), 0, 0, 0, 0)
}

// After schedules fn d after the current time.
//
//progmp:deterministic
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Reschedule moves a pending timer to absolute virtual time at (clamped
// to now) and returns the timer that now names it; ok is false, and
// nothing happened, when t is no longer pending. The event takes a
// fresh seq, so it orders among same-time events exactly as Stop
// followed by a new Post would — without leaving a cancelled event
// behind in the heap.
//
//progmp:hotpath
//progmp:deterministic
func (e *Engine) Reschedule(t Timer, at time.Duration) (moved Timer, ok bool) {
	if !t.pending() {
		return Timer{}, false
	}
	if at < e.now {
		at = e.now
	}
	ev := t.ev
	ev.at, ev.seq = at, e.seq
	e.seq++
	e.up(int(ev.idx))
	e.down(int(ev.idx)) // a no-op when up moved it
	return Timer{ev: ev, seq: ev.seq}, true
}

// before is the heap order: by time, then by scheduling order.
func (x *event) before(y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// up restores the heap after pq[i] may have become smaller.
func (e *Engine) up(i int) {
	ev := e.pq[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		e.pq[i].idx = int32(i)
		i = parent
	}
	e.pq[i] = ev
	ev.idx = int32(i)
}

// down restores the heap after pq[i] may have become larger.
func (e *Engine) down(i int) {
	ev := e.pq[i]
	for {
		child := 2*i + 1
		if child >= e.n {
			break
		}
		if r := child + 1; r < e.n && e.pq[r].before(e.pq[child]) {
			child = r
		}
		if !e.pq[child].before(ev) {
			break
		}
		e.pq[i] = e.pq[child]
		e.pq[i].idx = int32(i)
		i = child
	}
	e.pq[i] = ev
	ev.idx = int32(i)
}

// pop removes the heap's root and puts it at the head of the free list.
// The caller reads what it needs from the returned event before
// scheduling anything: the next Post reuses it.
func (e *Engine) pop() *event {
	root := e.pq[0]
	e.n--
	if e.n > 0 {
		e.pq[0] = e.pq[e.n]
		e.down(0)
	}
	e.pq[e.n] = root
	return root
}

// dropCancelled recycles cancelled events at the head of the heap, so
// the root, if any, is the next event that will fire.
func (e *Engine) dropCancelled() {
	for e.n > 0 && e.pq[0].h == nil {
		e.pop()
	}
}

// Step fires the next event; it reports false when no events remain.
//
//progmp:hotpath
//progmp:deterministic
func (e *Engine) Step() bool {
	e.dropCancelled()
	if e.n == 0 {
		return false
	}
	ev := e.pop()
	h, kind, a, b, c := ev.h, ev.kind, ev.a, ev.b, ev.c
	ev.h = nil // a recycled event must not pin its last handler
	e.now = ev.at
	e.mEvents.Add(1)
	e.mPending.Set(int64(e.n))
	//progmp:ignore hotpath the one dynamic dispatch of the event loop: the receiver is a long-lived object whose per-segment handlers are hotpath roots of their own; only funcHandler (At/After, the cold-path API) runs arbitrary code
	h.HandleEvent(kind, a, b, c)
	return true
}

// NextEventAt peeks the timestamp of the next live event without
// firing it, discarding cancelled heap heads on the way; ok is false
// when no events remain. Batched drivers (the fleet shard loop) use it
// to park a connection's engine until its next wakeup instead of
// polling.
//
//progmp:deterministic
func (e *Engine) NextEventAt() (at time.Duration, ok bool) {
	e.dropCancelled()
	if e.n == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// Run fires events until the queue drains.
//
//progmp:deterministic
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline and then advances
// the clock to the deadline.
//
//progmp:deterministic
func (e *Engine) RunUntil(deadline time.Duration) {
	for {
		at, ok := e.NextEventAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
