package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEngine is the event loop as it was before events became typed and
// recycled: one closure and one *refTimer per scheduling, cancelled
// events left in the heap until popped. It stays as the reference
// TestEngineMatchesReferenceOrder compares firing order against.
type refEngine struct {
	now time.Duration
	seq uint64
	pq  refHeap
}

type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refTimer struct{ ev *refEvent }

func (t *refTimer) Stop() {
	if t != nil && t.ev != nil {
		t.ev.cancelled = true
	}
}

func (e *refEngine) At(t time.Duration, fn func()) *refTimer {
	if t < e.now {
		t = e.now
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.pq, ev)
	return &refTimer{ev: ev}
}

func (e *refEngine) Step() bool {
	for len(e.pq) > 0 {
		ev := heap.Pop(&e.pq).(*refEvent)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) NextEventAt() (time.Duration, bool) {
	for len(e.pq) > 0 && e.pq[0].cancelled {
		heap.Pop(&e.pq)
	}
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

func (e *refEngine) RunUntil(deadline time.Duration) {
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

// scriptedEngine is what the random script needs from either engine.
// Timers are named by the id of the scheduling that created them; an
// id whose event fired or was stopped is simply gone.
type scriptedEngine interface {
	clock() time.Duration
	schedule(id int, at time.Duration, fn func())
	stop(id int)
	// reschedule moves a pending timer; on a fired or stopped one it
	// does nothing.
	reschedule(id int, at time.Duration)
	step() bool
	runUntil(time.Duration)
	nextEventAt() (time.Duration, bool)
}

type newUnderTest struct {
	eng    *Engine
	timers map[int]Timer
	// events, when not nil, collects every event the engine scheduled.
	events map[*event]bool
}

func (u *newUnderTest) clock() time.Duration { return u.eng.Now() }
func (u *newUnderTest) schedule(id int, at time.Duration, fn func()) {
	if id%2 == 0 { // both spellings of the cold-path API
		u.timers[id] = u.eng.At(at, fn)
	} else {
		u.timers[id] = u.eng.After(at-u.eng.Now(), fn)
	}
	if u.events != nil {
		u.events[u.timers[id].ev] = true
	}
}
func (u *newUnderTest) stop(id int) { u.timers[id].Stop() }
func (u *newUnderTest) reschedule(id int, at time.Duration) {
	if t, ok := u.eng.Reschedule(u.timers[id], at); ok {
		u.timers[id] = t
	}
}
func (u *newUnderTest) step() bool                         { return u.eng.Step() }
func (u *newUnderTest) runUntil(t time.Duration)           { u.eng.RunUntil(t) }
func (u *newUnderTest) nextEventAt() (time.Duration, bool) { return u.eng.NextEventAt() }

type refUnderTest struct {
	eng    *refEngine
	timers map[int]*refTimer
	fns    map[int]func()
}

func (u *refUnderTest) clock() time.Duration { return u.eng.now }
func (u *refUnderTest) schedule(id int, at time.Duration, fn func()) {
	wrapped := func() {
		delete(u.timers, id) // fired: no longer pending
		fn()
	}
	u.fns[id] = wrapped
	u.timers[id] = u.eng.At(at, wrapped)
}
func (u *refUnderTest) stop(id int) {
	u.timers[id].Stop()
	delete(u.timers, id)
}
func (u *refUnderTest) reschedule(id int, at time.Duration) {
	if t, pending := u.timers[id]; pending {
		t.Stop()
		u.timers[id] = u.eng.At(at, u.fns[id])
	}
}
func (u *refUnderTest) step() bool                         { return u.eng.Step() }
func (u *refUnderTest) runUntil(t time.Duration)           { u.eng.RunUntil(t) }
func (u *refUnderTest) nextEventAt() (time.Duration, bool) { return u.eng.NextEventAt() }

// runEngineScript drives eng with a random script drawn from seed and
// returns its observable history: every firing with the clock, every
// NextEventAt answer, the clock after every driver operation. Handlers
// themselves schedule, stop and reschedule, so events are recycled
// while their successors are being created.
func runEngineScript(eng scriptedEngine, seed int64) []string {
	op, drain := engineScript(eng, seed)
	for i := 0; i < 3000; i++ {
		op()
	}
	return drain()
}

// engineScript is runEngineScript one driver operation at a time, so
// that scripts over several engines can interleave: op runs the next
// operation, drain fires what is left and returns the history.
func engineScript(eng scriptedEngine, seed int64) (op func(), drain func() []string) {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	nextID := 0
	randomTime := func() time.Duration {
		switch rng.Intn(4) {
		case 0: // ties and the past (clamped to now)
			return eng.clock() - time.Duration(rng.Intn(3))*time.Millisecond
		case 1:
			return eng.clock() + time.Duration(rng.Intn(4))*time.Millisecond
		default:
			return eng.clock() + time.Duration(rng.Intn(50_000))*time.Microsecond
		}
	}
	anyID := func() int { return rng.Intn(nextID + 1) } // may name a dead or unknown timer
	var schedule func()
	mutate := func() {
		switch r := rng.Intn(10); {
		case r < 5:
			schedule()
		case r < 7:
			eng.stop(anyID())
		default:
			eng.reschedule(anyID(), randomTime())
		}
	}
	schedule = func() {
		id := nextID
		nextID++
		eng.schedule(id, randomTime(), func() {
			log = append(log, fmt.Sprintf("fire %d @%v", id, eng.clock()))
			for n := rng.Intn(3); n > 0; n-- {
				mutate()
			}
		})
	}
	op = func() {
		switch r := rng.Intn(20); {
		case r < 9:
			mutate()
		case r < 15:
			log = append(log, fmt.Sprintf("step %v @%v", eng.step(), eng.clock()))
		case r < 17:
			eng.runUntil(eng.clock() + time.Duration(rng.Intn(20))*time.Millisecond)
			log = append(log, fmt.Sprintf("rununtil @%v", eng.clock()))
		default:
			at, ok := eng.nextEventAt()
			log = append(log, fmt.Sprintf("next %v %v", at, ok))
		}
	}
	drain = func() []string {
		for eng.step() {
		}
		return append(log, fmt.Sprintf("drained @%v", eng.clock()))
	}
	return op, drain
}

// TestEngineMatchesReferenceOrder: the typed, recycled engine fires the
// same events at the same clock in the same order as the closure engine
// it replaced, under random At/After/Stop/Reschedule/Step/RunUntil/
// NextEventAt scripts — Reschedule standing for the reference's Stop
// followed by At.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := runEngineScript(&newUnderTest{eng: NewEngine(1), timers: map[int]Timer{}}, seed)
		want := runEngineScript(&refUnderTest{eng: &refEngine{}, timers: map[int]*refTimer{}, fns: map[int]func(){}}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: history has %d entries, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d entry %d: got %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestPooledEnginesMatchReferenceOrder: engines that share a Pool each
// fire what a reference engine of their own fires, in the same order,
// when their scripts interleave one driver operation at a time — so
// RunUntil visits alternate between engines, each giving its free
// events back to the pool and taking others' — and stale Timers keep
// naming events that another engine has since taken.
func TestPooledEnginesMatchReferenceOrder(t *testing.T) {
	const engines = 4
	lent := false
	for seed := int64(1); seed <= 20; seed++ {
		pool := &Pool{}
		var ops, refOps [engines]func()
		var drains, refDrains [engines]func() []string
		var under [engines]*newUnderTest
		for i := range under {
			under[i] = &newUnderTest{eng: NewEngine(1), timers: map[int]Timer{}, events: map[*event]bool{}}
			under[i].eng.SharePool(pool)
			script := seed*engines + int64(i)
			ops[i], drains[i] = engineScript(under[i], script)
			refOps[i], refDrains[i] = engineScript(&refUnderTest{eng: &refEngine{}, timers: map[int]*refTimer{}, fns: map[int]func(){}}, script)
		}
		turns := rand.New(rand.NewSource(-seed))
		for n := 0; n < engines*3000; n++ {
			i := turns.Intn(engines)
			ops[i]()
			refOps[i]()
		}
		for i := range under {
			got, want := drains[i](), refDrains[i]()
			if len(got) != len(want) {
				t.Fatalf("seed %d engine %d: history has %d entries, reference %d", seed, i, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("seed %d engine %d entry %d: got %q, reference %q", seed, i, k, got[k], want[k])
				}
			}
			for ev := range under[i].events {
				for j := i + 1; j < engines; j++ {
					lent = lent || under[j].events[ev]
				}
			}
		}
	}
	if !lent {
		t.Fatal("no event passed from one engine to another: the pool was never exercised")
	}
}

// TestPooledTimerStaysStale: an event engine A fired and gave back to
// the pool, taken by engine B, cannot be stopped or moved through A's
// Timer, although B's own count of schedulings is below A's.
func TestPooledTimerStaysStale(t *testing.T) {
	pool := &Pool{}
	a, b := NewEngine(1), NewEngine(2)
	a.SharePool(pool)
	b.SharePool(pool)
	for i := 0; i < 3; i++ {
		a.At(time.Duration(i)*time.Microsecond, func() {})
	}
	stale := a.At(time.Millisecond, func() {})
	a.RunUntil(time.Millisecond)
	fired := 0
	fresh := b.At(2*time.Millisecond, func() { fired++ })
	for fresh.ev != stale.ev {
		// Take the pool's events until B holds the one A's stale
		// Timer names.
		fresh = b.At(2*time.Millisecond, func() { fired++ })
	}
	stale.Stop()
	for _, eng := range []*Engine{a, b} {
		if _, ok := eng.Reschedule(stale, time.Second); ok {
			t.Fatal("Reschedule through A's stale Timer moved the event B took from the pool")
		}
	}
	b.RunUntil(time.Second)
	if fired != 4 || b.Now() != time.Second {
		t.Errorf("B fired %d events by %v, want 4: a stale Timer of A touched B's event", fired, b.Now())
	}
}

// TestTimerStopAfterRecycle: a Timer whose event already fired must not
// cancel the later scheduling that reuses the same event object.
func TestTimerStopAfterRecycle(t *testing.T) {
	eng := NewEngine(1)
	fired := ""
	stale := eng.At(time.Millisecond, func() { fired += "a" })
	eng.Run()
	fresh := eng.At(2*time.Millisecond, func() { fired += "b" })
	if fresh.ev != stale.ev {
		t.Fatalf("the fired event was not reused; the test needs it to be")
	}
	stale.Stop()
	if _, ok := eng.Reschedule(stale, time.Second); ok {
		t.Errorf("Reschedule through a stale timer moved the reused event")
	}
	eng.Run()
	if fired != "ab" {
		t.Errorf("fired %q, want \"ab\": a stale Stop cancelled the reused event", fired)
	}
	if eng.Now() != 2*time.Millisecond {
		t.Errorf("clock %v, want 2ms", eng.Now())
	}
}

// TestTimerStopIdempotent: stopping twice, stopping the zero Timer and
// stopping through the pre-Reschedule timer value are all harmless.
func TestTimerStopIdempotent(t *testing.T) {
	eng := NewEngine(1)
	var zero Timer
	zero.Stop()
	n := 0
	tm := eng.At(time.Millisecond, func() { n++ })
	tm.Stop()
	tm.Stop()
	other := eng.At(time.Millisecond, func() { n += 10 })
	moved, ok := eng.Reschedule(other, 3*time.Millisecond)
	if !ok {
		t.Fatal("Reschedule of a pending timer reported not pending")
	}
	other.Stop() // superseded by moved: must not cancel it
	eng.Run()
	if n != 10 || eng.Now() != 3*time.Millisecond {
		t.Errorf("n = %d at %v, want 10 at 3ms", n, eng.Now())
	}
	moved.Stop() // after firing
	if _, ok := eng.Reschedule(tm, time.Second); ok {
		t.Error("Reschedule revived a stopped timer")
	}
}

// TestEnginePostRecyclesEvents pins the free list: once warm, posting
// and firing typed events allocates nothing.
func TestEnginePostRecyclesEvents(t *testing.T) {
	eng := NewEngine(1)
	h := &countingHandler{}
	round := func() {
		for i := 0; i < 8; i++ {
			eng.Post(eng.Now()+time.Duration(i)*time.Microsecond, h, 1, int64(i), 0, 0)
		}
		tm := eng.Post(eng.Now()+time.Millisecond, h, 2, 0, 0, 0)
		tm, _ = eng.Reschedule(tm, eng.Now()+2*time.Millisecond)
		tm.Stop()
		eng.Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("Post/Reschedule/Stop/Step allocate %.1f times per round, want 0", n)
	}
	if h.n == 0 || h.stopped != 0 {
		t.Fatalf("handler saw %d events, %d of them stopped ones", h.n, h.stopped)
	}
}

type countingHandler struct{ n, stopped int }

func (h *countingHandler) HandleEvent(kind uint8, _, _, _ int64) {
	h.n++
	if kind == 2 {
		h.stopped++
	}
}
