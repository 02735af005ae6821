package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	eng.At(30*time.Millisecond, func() { order = append(order, 3) })
	eng.At(10*time.Millisecond, func() { order = append(order, 1) })
	eng.At(20*time.Millisecond, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", order)
	}
	if eng.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	eng.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	eng.At(time.Millisecond, func() {
		eng.After(time.Millisecond, func() { fired++ })
	})
	eng.Run()
	if fired != 1 {
		t.Errorf("nested event did not fire")
	}
	if eng.Now() != 2*time.Millisecond {
		t.Errorf("Now = %v, want 2ms", eng.Now())
	}
}

func TestTimerStop(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	tm := eng.At(time.Millisecond, func() { fired = true })
	tm.Stop()
	tm.Stop() // idempotent
	eng.Run()
	if fired {
		t.Errorf("stopped timer fired")
	}
}

// TestEngineResetEqualsNew: a reset engine fires nothing it held, holds
// no handler of the old world, runs from zero on the new seed's draws
// as a new engine does, and a Timer from before the reset cannot touch
// the event that reuses its slot — also when the engine shares a pool,
// gives it what the reset freed and takes its next event back from it.
func TestEngineResetEqualsNew(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		for _, build := range []func(int64) *Engine{NewEngine, NewEngineCompact} {
			resetEqualsNew(t, build, pooled)
		}
	}
}

func resetEqualsNew(t *testing.T, build func(int64) *Engine, pooled bool) {
	t.Helper()
	eng := build(1)
	var pool *Pool
	if pooled {
		pool = &Pool{}
		eng.SharePool(pool)
	}
	path := NewPath(eng, PathConfig{Rate: ConstantRate(1e6), Delay: time.Millisecond, DupProb: 0.5})
	stale := eng.At(time.Second, func() { t.Error("an event of the old world fired") })
	for i := 0; i < 8; i++ {
		path.Send(100, func() { t.Error("a packet of the old world arrived") })
	}
	eng.RunUntil(time.Microsecond)

	eng.Reset(9)
	for _, ev := range eng.pq {
		if ev.h != nil {
			t.Fatalf("event at %v still holds its handler after the reset", ev.at)
		}
	}
	if pooled {
		eng.RunUntil(0) // gives the pool every event and flight the reset freed
		if eng.n != 0 || len(eng.pq) != 0 || eng.flights != nil || len(pool.events) == 0 || pool.flights == nil {
			t.Fatalf("after RunUntil the engine keeps %d events (%d pending) and flights %v; the pool holds %d events",
				len(eng.pq), eng.n, eng.flights != nil, len(pool.events))
		}
		for _, ev := range pool.events {
			if ev.h != nil {
				t.Fatalf("pooled event at %v still holds its handler after the reset", ev.at)
			}
		}
	}
	fired := 0
	eng.At(time.Second, func() { fired++ })
	stale.Stop()
	if eng.Now() != 0 || eng.Rand().Int63() != build(9).Rand().Int63() {
		t.Fatalf("reset engine at %v, or not drawing from seed 9", eng.Now())
	}
	eng.Run()
	if fired != 1 {
		t.Fatalf("the new world's event fired %d times after a stale Stop", fired)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	eng.At(50*time.Millisecond, func() { fired = true })
	eng.RunUntil(10 * time.Millisecond)
	if fired {
		t.Errorf("future event fired early")
	}
	if eng.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v, want 10ms", eng.Now())
	}
	eng.RunUntil(100 * time.Millisecond)
	if !fired {
		t.Errorf("event did not fire by deadline")
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	eng := NewEngine(1)
	eng.RunUntil(10 * time.Millisecond)
	fired := time.Duration(-1)
	eng.At(time.Millisecond, func() { fired = eng.Now() })
	eng.Run()
	if fired != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want clamped to 10ms", fired)
	}
}

func TestPathSerializationAndPropagation(t *testing.T) {
	eng := NewEngine(1)
	p := NewPath(eng, PathConfig{
		Name:  "test",
		Rate:  ConstantRate(1e6), // 1 MB/s
		Delay: 10 * time.Millisecond,
	})
	var arrivals []time.Duration
	// Two back-to-back 1000-byte packets: 1 ms serialization each.
	p.Send(1000, func() { arrivals = append(arrivals, eng.Now()) })
	p.Send(1000, func() { arrivals = append(arrivals, eng.Now()) })
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	want0 := 11 * time.Millisecond
	want1 := 12 * time.Millisecond
	if arrivals[0] != want0 || arrivals[1] != want1 {
		t.Errorf("arrivals = %v, want [%v %v] (serialization must queue)", arrivals, want0, want1)
	}
}

func TestPathDropTail(t *testing.T) {
	eng := NewEngine(1)
	p := NewPath(eng, PathConfig{
		Rate:       ConstantRate(1e5),
		Delay:      time.Millisecond,
		QueueBytes: 3000,
	})
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.Send(1000, func() {}) {
			accepted++
		}
	}
	// A send at time 0 queues behind the ones before it: the fourth
	// would take the backlog past 3000 B, and so would every later one.
	if accepted != 3 {
		t.Errorf("drop-tail queue of 3000 B accepted %d of ten 1000 B sends at once, want 3", accepted)
	}
}

func TestPathLoss(t *testing.T) {
	eng := NewEngine(42)
	p := NewPath(eng, PathConfig{
		Rate:  ConstantRate(1e9),
		Delay: time.Millisecond,
		Loss:  BernoulliLoss{P: 0.5},
	})
	delivered := 0
	const n = 2000
	for i := 0; i < n; i++ {
		// A lost packet still took its link time: the send is accepted.
		if !p.Send(100, func() { delivered++ }) {
			t.Fatalf("send %d refused: loss happens on the wire, not at the queue", i)
		}
	}
	eng.Run()
	ratio := float64(delivered) / n
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("delivery ratio = %.3f, want ≈ 0.5", ratio)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	eng := NewEngine(7)
	ge := &GilbertElliott{PGood: 0.001, PBad: 0.5, PGoodToBad: 0.01, PBadToGood: 0.2}
	losses := make([]bool, 0, 20000)
	for i := 0; i < 20000; i++ {
		losses = append(losses, ge.Lost(eng))
	}
	// Burstiness: probability of loss right after a loss must exceed
	// the marginal loss rate.
	total, lost, lostAfterLost, lostPrev := 0, 0, 0, 0
	for i := 1; i < len(losses); i++ {
		total++
		if losses[i] {
			lost++
		}
		if losses[i-1] {
			lostPrev++
			if losses[i] {
				lostAfterLost++
			}
		}
	}
	marginal := float64(lost) / float64(total)
	conditional := float64(lostAfterLost) / float64(lostPrev)
	if conditional <= marginal*1.5 {
		t.Errorf("Gilbert-Elliott not bursty: P(loss|loss)=%.3f vs P(loss)=%.3f", conditional, marginal)
	}
}

func TestSteppedRate(t *testing.T) {
	r := SteppedRate(Step{From: 0, Rate: 100}, Step{From: time.Second, Rate: 200})
	if got := r(500 * time.Millisecond); got != 100 {
		t.Errorf("rate at 0.5s = %v, want 100", got)
	}
	if got := r(time.Second); got != 200 {
		t.Errorf("rate at 1s = %v, want 200", got)
	}
	if got := r(2 * time.Second); got != 200 {
		t.Errorf("rate at 2s = %v, want 200", got)
	}
}

func TestFluctuatingRateBounds(t *testing.T) {
	r := FluctuatingRate(3e6, 1e6, time.Second, 1e6)
	for at := time.Duration(0); at < 3*time.Second; at += 37 * time.Millisecond {
		v := r(at)
		if v < 1e6 || v > 4e6+1 {
			t.Fatalf("rate %v at %v out of [floor, base+amp]", v, at)
		}
	}
}

func TestDeadPathDropsEverything(t *testing.T) {
	eng := NewEngine(1)
	p := NewPath(eng, PathConfig{Rate: ConstantRate(0), Delay: time.Millisecond})
	if p.Send(100, func() { t.Error("delivered on dead path") }) {
		t.Errorf("Send on dead path returned true")
	}
	eng.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		eng := NewEngine(seed)
		p := NewPath(eng, PathConfig{
			Rate:   ConstantRate(1e6),
			Delay:  5 * time.Millisecond,
			Jitter: 2 * time.Millisecond,
			Loss:   BernoulliLoss{P: 0.1},
		})
		var arrivals []time.Duration
		for i := 0; i < 100; i++ {
			p.Send(500, func() { arrivals = append(arrivals, eng.Now()) })
		}
		eng.Run()
		return arrivals
	}
	a := run(123)
	b := run(123)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Record("x", 0, 1)
	r.Record("x", 600*time.Millisecond, 2)
	r.Record("x", 1100*time.Millisecond, 3)
	r.Record("y", 0, 10)
	if got := r.Sum("x"); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := r.Mean("x"); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if p := r.Percentile("x", 1.0); p != 3 {
		t.Errorf("P100 = %v, want 3", p)
	}
	if p := r.Percentile("x", 0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
}

// Property: for any sequence of sends on a lossless constant-rate path,
// arrivals preserve FIFO order and spacing of at least size/rate.
func TestPathFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		eng := NewEngine(5)
		p := NewPath(eng, PathConfig{
			Rate: ConstantRate(1e6), Delay: 3 * time.Millisecond, QueueBytes: 1 << 30,
		})
		var arrivals []time.Duration
		for _, s := range sizes {
			size := int(s)%1400 + 1
			p.Send(size, func() { arrivals = append(arrivals, eng.Now()) })
		}
		eng.Run()
		if len(arrivals) != len(sizes) {
			return false
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i] < arrivals[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRateStepsAndLoops(t *testing.T) {
	samples := []Sample{
		{At: 0, Value: 100},
		{At: time.Second, Value: 200},
		{At: 2 * time.Second, Value: 300},
	}
	r := ReplayRate(samples, false)
	if got := r(500 * time.Millisecond); got != 100 {
		t.Errorf("rate at 0.5s = %v, want 100", got)
	}
	if got := r(1500 * time.Millisecond); got != 200 {
		t.Errorf("rate at 1.5s = %v, want 200", got)
	}
	if got := r(10 * time.Second); got != 300 {
		t.Errorf("non-looping trace must hold the final rate, got %v", got)
	}
	looped := ReplayRate(samples, true)
	if got := looped(2500 * time.Millisecond); got != 100 {
		t.Errorf("looped rate at 2.5s = %v, want 100 (wrapped to 0.5s)", got)
	}
	if got := ReplayRate(nil, false)(0); got != 0 {
		t.Errorf("empty trace rate = %v, want 0", got)
	}
}

func TestSyntheticCellularTrace(t *testing.T) {
	const mean = 4e6
	trace := SyntheticCellularTrace(7, 60*time.Second, 100*time.Millisecond, mean, 0.3e6)
	if len(trace) < 500 {
		t.Fatalf("trace too short: %d samples", len(trace))
	}
	fades := 0
	for i, s := range trace {
		if s.Value < mean*0.05 {
			t.Fatalf("sample %d below the floor: %v", i, s.Value)
		}
		if s.Value > mean*1.9 {
			t.Fatalf("sample %d above the cap: %v", i, s.Value)
		}
		if s.Value <= mean*0.11 {
			fades++
		}
	}
	if fades == 0 {
		t.Errorf("60s cellular trace produced no deep fades")
	}
	// Determinism.
	again := SyntheticCellularTrace(7, 60*time.Second, 100*time.Millisecond, mean, 0.3e6)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatalf("trace not reproducible at sample %d", i)
		}
	}
}

func TestReplayRateDrivesTransfer(t *testing.T) {
	// A transfer over a trace-driven path completes and respects the
	// fades (longer than a constant-rate path of the same mean).
	run := func(rate RateFunc) time.Duration {
		eng := NewEngine(1)
		p := NewPath(eng, PathConfig{Rate: rate, Delay: 5 * time.Millisecond, QueueBytes: 1 << 30})
		var last time.Duration
		for i := 0; i < 2000; i++ {
			p.Send(1460, func() { last = eng.Now() })
		}
		eng.Run()
		return last
	}
	trace := SyntheticCellularTrace(7, 120*time.Second, 100*time.Millisecond, 1e6, 0.2e6)
	traced := run(ReplayRate(trace, true))
	constant := run(ConstantRate(1e6))
	if traced == 0 || constant == 0 {
		t.Fatal("transfer did not complete")
	}
	if traced < constant/2 || traced > constant*4 {
		t.Errorf("traced completion %v implausible vs constant %v", traced, constant)
	}
}

func TestPathAccessorsAndBacklogClearAt(t *testing.T) {
	eng := NewEngine(1)
	p := NewPath(eng, PathConfig{Name: "acc", Rate: ConstantRate(1e6), Delay: time.Millisecond})
	if p.cfg.Name != "acc" || p.cfg.Delay != time.Millisecond {
		t.Errorf("config wrong: %q %v", p.cfg.Name, p.cfg.Delay)
	}
	if got := p.BacklogClearAt(0); got != eng.Now() {
		t.Errorf("empty backlog clears now, got %v", got)
	}
	for i := 0; i < 10; i++ {
		p.Send(1000, func() {})
	}
	// ~10 KB backlog at 1 MB/s: clearing to 2 KB takes ≈ 8 ms.
	at := p.BacklogClearAt(2000)
	if at < 6*time.Millisecond || at > 10*time.Millisecond {
		t.Errorf("BacklogClearAt = %v, want ≈ 8 ms", at)
	}
	// A path that dies with a backlog never drains it.
	eng2 := NewEngine(2)
	dying := NewPath(eng2, PathConfig{
		Rate:  SteppedRate(Step{From: 0, Rate: 1e6}, Step{From: 5 * time.Millisecond, Rate: 0}),
		Delay: time.Millisecond,
	})
	for i := 0; i < 20; i++ {
		dying.Send(1000, func() {})
	}
	eng2.RunUntil(6 * time.Millisecond)
	if got := dying.BacklogClearAt(0); got < eng2.Now()+time.Minute {
		t.Errorf("dead path with backlog must report a distant drain deadline, got %v", got)
	}
}

func TestBlackoutLoss(t *testing.T) {
	eng := NewEngine(1)
	b := BlackoutLoss{From: time.Second}
	if b.Lost(eng) {
		t.Errorf("blackout before From")
	}
	eng.RunUntil(2 * time.Second)
	if !b.Lost(eng) {
		t.Errorf("no blackout after From")
	}
	if (NoLoss{}).Lost(eng) {
		t.Errorf("NoLoss lost a packet")
	}
}

func TestNewLinkReverseIsFastAndLossless(t *testing.T) {
	eng := NewEngine(3)
	l := NewLink(eng, PathConfig{Name: "x", Rate: ConstantRate(1e6), Delay: 5 * time.Millisecond, Loss: BernoulliLoss{P: 0.5}})
	delivered := 0
	for i := 0; i < 100; i++ {
		l.Rev.Send(40, func() { delivered++ })
	}
	eng.Run()
	if delivered != 100 {
		t.Errorf("reverse path dropped ACKs: %d/100", delivered)
	}
}

func TestChainedPathsCompose(t *testing.T) {
	eng := NewEngine(1)
	bottleneck := NewPath(eng, PathConfig{Name: "bn", Rate: ConstantRate(1e5), Delay: 10 * time.Millisecond})
	access := NewPath(eng, PathConfig{Name: "acc", Rate: ConstantRate(1e8), Delay: time.Millisecond, Next: bottleneck})
	var arrivals []time.Duration
	access.Send(1000, func() { arrivals = append(arrivals, eng.Now()) })
	access.Send(1000, func() { arrivals = append(arrivals, eng.Now()) })
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("chained delivery count = %d", len(arrivals))
	}
	// Access hop ≈ 1 ms, bottleneck serialization 10 ms each + 10 ms
	// propagation: first ≈ 21 ms, second ≈ 31 ms (queued behind it).
	if arrivals[0] < 20*time.Millisecond || arrivals[0] > 23*time.Millisecond {
		t.Errorf("first chained arrival %v, want ≈ 21 ms", arrivals[0])
	}
	if arrivals[1]-arrivals[0] < 9*time.Millisecond {
		t.Errorf("bottleneck serialization not applied: gap %v", arrivals[1]-arrivals[0])
	}
}

// TestREDDropsEarly fills a 64 KiB queue at time 0, over many seeds,
// and records the backlog at each send. Without RED the only refusal
// is the tail drop. With it, no send is refused at or below 3/16 of the
// queue (12 KiB), the refusals ramp up above it, and from 7/8 of the
// queue (56 KiB) on, until the tail, they are 15 % of the sends.
func TestREDDropsEarly(t *testing.T) {
	const queue, size = 64 << 10, 1000
	type band struct{ sends, drops int }
	var low, high, top band // (3/16, 1/2], (1/2, 7/8), [7/8, tail)
	for seed := int64(1); seed <= 200; seed++ {
		for _, red := range []bool{false, true} {
			eng := NewEngine(seed)
			p := NewPath(eng, PathConfig{
				Rate:       ConstantRate(1e5),
				Delay:      time.Millisecond,
				QueueBytes: queue,
				RED:        red,
			})
			for i := 0; i < 2*queue/size; i++ {
				backlog := p.QueuedBytes()
				accepted := p.Send(size, func() {})
				if backlog+size > queue {
					continue // the tail drop
				}
				var b *band
				switch {
				case !red || backlog <= queue*3/16:
					if !accepted {
						t.Fatalf("seed %d, RED %v: refused a send at backlog %d B", seed, red, backlog)
					}
					continue
				case backlog <= queue/2:
					b = &low
				case backlog < queue*7/8:
					b = &high
				default:
					b = &top
				}
				b.sends++
				if !accepted {
					b.drops++
				}
			}
		}
	}
	ratio := func(b band) float64 { return float64(b.drops) / float64(b.sends) }
	if low.drops == 0 || ratio(high) < 2*ratio(low) {
		t.Errorf("RED drop ratio %.3f just above 3/16 of the queue, %.3f nearer 7/8: want a ramp up from 0", ratio(low), ratio(high))
	}
	if r := ratio(top); math.Abs(r-0.15) > 0.03 {
		t.Errorf("RED dropped %.3f of %d sends at or above 7/8 of the queue, want 0.15", r, top.sends)
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Microsecond, func() {})
		eng.Step()
	}
}

func BenchmarkPathSend(b *testing.B) {
	eng := NewEngine(1)
	p := NewPath(eng, PathConfig{Rate: ConstantRate(1e9), Delay: time.Millisecond, QueueBytes: 1 << 30})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(1460, func() {})
		if i%64 == 0 {
			eng.Run() // drain periodically so the heap stays small
		}
	}
}

// BacklogClearAt estimates the virtual time when the transmit backlog
// will have drained to at most targetBytes (now when already below).
func (p *Path) BacklogClearAt(targetBytes int) time.Duration {
	now := p.eng.Now()
	excess := p.QueuedBytes() - targetBytes
	if excess <= 0 {
		return now
	}
	rate := p.cfg.Rate(now)
	if rate <= 0 {
		// A dead link never drains; report a distant deadline.
		return now + time.Hour
	}
	return now + time.Duration(float64(excess)/rate*float64(time.Second))
}
