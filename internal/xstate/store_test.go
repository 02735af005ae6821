package xstate

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"progmp/internal/obs"
	"progmp/internal/runtime"
)

func TestGlobals(t *testing.T) {
	s := NewStore()
	if got := s.Load().Globals[0]; got != 0 {
		t.Fatalf("fresh global = %d, want 0", got)
	}
	s.SetGlobal(0, 42)
	s.SetGlobal(7, -7)
	if got := s.Load().Globals[0]; got != 42 {
		t.Fatalf("G1 = %d, want 42", got)
	}
	if got := s.Load().Globals[7]; got != -7 {
		t.Fatalf("G8 = %d, want -7", got)
	}
	// Out-of-range access is a graceful no-op / zero.
	s.SetGlobal(-1, 9)
	s.SetGlobal(runtime.NumGlobals, 9)
	if e := s.Epoch(); e != 2 {
		t.Fatalf("epoch = %d, want 2 (out-of-range writes must not publish)", e)
	}
}

func TestSetGlobalsBatch(t *testing.T) {
	s := NewStore()
	vals := [runtime.NumGlobals]int64{10, 20, 30, 40, 50, 60, 70, 80}
	s.SetGlobals(0b101, &vals) // G1 and G3
	snap := s.Load()
	if snap.Globals[0] != 10 || snap.Globals[2] != 30 {
		t.Fatalf("batched globals = %v", snap.Globals)
	}
	if snap.Globals[1] != 0 {
		t.Fatalf("G2 written despite clean bit: %d", snap.Globals[1])
	}
	if snap.Epoch != 1 {
		t.Fatalf("batch must publish exactly one epoch, got %d", snap.Epoch)
	}
	s.SetGlobals(0, &vals) // empty mask: no publish
	if s.Epoch() != 1 {
		t.Fatalf("empty batch published an epoch")
	}
}

func TestDestRegistryAndStats(t *testing.T) {
	s := NewStore()
	wifi := s.DestID("wifi")
	lte := s.DestID("lte")
	if wifi == lte {
		t.Fatalf("distinct names interned to the same id")
	}
	if again := s.DestID("wifi"); again != wifi {
		t.Fatalf("re-interning changed the id: %d != %d", again, wifi)
	}
	if id, ok := s.LookupDest("lte"); !ok || id != lte {
		t.Fatalf("LookupDest(lte) = %d,%v", id, ok)
	}
	if _, ok := s.LookupDest("dsl"); ok {
		t.Fatalf("LookupDest invented a destination")
	}
	if n := s.NumDests(); n != 2 {
		t.Fatalf("NumDests = %d, want 2", n)
	}

	s.RecordRTT(wifi, 20000)
	if d := s.Load().Stats(wifi); d.SRTTUS != 20000 || d.Samples != 1 {
		t.Fatalf("first sample must seed srtt: %+v", d)
	}
	s.RecordRTT(wifi, 28000) // 20000 + (28000-20000)/8 = 21000
	if d := s.Load().Stats(wifi); d.SRTTUS != 21000 {
		t.Fatalf("ewma srtt = %d, want 21000", d.SRTTUS)
	}
	s.RecordRTT(wifi, 0) // non-positive samples ignored
	if d := s.Load().Stats(wifi); d.Samples != 2 {
		t.Fatalf("zero rtt sample was counted: %+v", d)
	}

	s.RecordLoss(lte, 3)
	s.RecordAck(lte, 0, 1500)
	s.RecordQuarantine(lte)
	d := s.Load().Stats(lte)
	if d.Lost != 3 || d.Delivered != 1500 || d.Quarantines != 1 {
		t.Fatalf("lte stats = %+v", d)
	}

	// Unknown ids are ignored, not fatal.
	s.RecordLoss(99, 1)
	s.RecordRTT(-1, 1000)

	all := s.Load().All()
	if len(all) != 2 || all[0].Name != "lte" || all[1].Name != "wifi" {
		t.Fatalf("All() = %+v", all)
	}
}

// TestSnapshotImmutable asserts a loaded snapshot never changes under
// later writes — the property the scheduler hot path relies on.
func TestSnapshotImmutable(t *testing.T) {
	s := NewStore()
	id := s.DestID("wifi")
	s.RecordRTT(id, 10000)
	s.SetGlobal(0, 1)
	old := s.Load()
	oldEpoch, oldRTT, oldG := old.Epoch, old.Stats(id).SRTTUS, old.Globals[0]

	s.RecordRTT(id, 90000)
	s.SetGlobal(0, 2)

	if old.Epoch != oldEpoch || old.Stats(id).SRTTUS != oldRTT || old.Globals[0] != oldG {
		t.Fatalf("published snapshot mutated under later writes")
	}
	if cur := s.Load(); cur.Epoch <= oldEpoch {
		t.Fatalf("writes did not advance the epoch: %d <= %d", cur.Epoch, oldEpoch)
	}
}

// TestEpochConsistencyStress hammers the store with concurrent writers
// while readers assert read-section coherence, half of them through the
// hot read section the scheduler uses and half through Load: within one
// read the two globals written together must always agree, every
// destination registered before the read must resolve, and per-dest
// delivered counts must be monotone across reads. The writers register
// more than 16·minCells destinations as they go, so the cell array
// grows four times and more under the readers. Run under -race this is
// the torn-read detector demanded by the epoch model.
func TestEpochConsistencyStress(t *testing.T) {
	s := NewStore()
	shared := s.DestID("wifi")
	const (
		writers    = 4
		readers    = 4
		iterations = 2000
		perWriter  = 16 * minCells / writers // 16·minCells+1 destinations in all
	)
	// registered counts completed DestID calls. Slots are handed out
	// densely in write order and nothing is evicted, so a read that
	// starts after k completions sees every id below k.
	var registered atomic.Int64
	registered.Store(1)
	var writing, reading sync.WaitGroup
	var done atomic.Bool // readers read until every writer has finished
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			var vals [runtime.NumGlobals]int64
			own := []int{shared}
			for i := 0; i < iterations; i++ {
				if i%(iterations/perWriter) == 0 {
					own = append(own, s.DestID(fmt.Sprintf("w%d.%d", w, i)))
					registered.Add(1)
				}
				// Invariant under test: G1 and G2 are always written
				// together with G2 == -G1.
				v := int64(w*iterations + i + 1)
				vals[0], vals[1] = v, -v
				s.SetGlobals(0b11, &vals)
				s.RecordAck(shared, 1000+int64(i%100), 100)
				s.RecordAck(own[i%len(own)], 0, 100)
			}
		}(w)
	}
	// A reader's view of one read: the epoch (0 for a hot read, which
	// has none), the globals, and each destination's delivered count
	// (-1 for an id that does not resolve).
	type view struct {
		epoch     uint64
		g         [runtime.NumGlobals]int64
		delivered []int64
	}
	hot := func(k int, v *view) {
		for {
			seq := s.ReadBegin()
			s.ReadGlobals(&v.g)
			cells := len(*s.t.cells.Load())
			for id := 0; id < k; id++ {
				v.delivered[id] = -1
				if id < cells {
					_, _, v.delivered[id], _ = s.ReadDest(id)
				}
			}
			if s.ReadValid(seq) {
				return
			}
		}
	}
	cold := func(k int, v *view) {
		snap := s.Load()
		v.epoch, v.g = snap.Epoch, snap.Globals
		for id := 0; id < k; id++ {
			v.delivered[id] = -1
			if d := snap.Stats(id); d != nil {
				v.delivered[id] = d.Delivered
			}
		}
	}
	for r := 0; r < readers; r++ {
		read := hot
		if r%2 == 1 {
			read = cold
		}
		reading.Add(1)
		go func() {
			defer reading.Done()
			var lastEpoch uint64
			var lastDelivered []int64
			var v view
			for !done.Load() {
				k := int(registered.Load())
				for len(lastDelivered) < k {
					lastDelivered = append(lastDelivered, 0)
					v.delivered = append(v.delivered, 0)
				}
				read(k, &v)
				if v.g[0] != -v.g[1] {
					t.Errorf("torn read: G1=%d G2=%d (epoch %d)", v.g[0], v.g[1], v.epoch)
					return
				}
				if v.epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", v.epoch, lastEpoch)
					return
				}
				lastEpoch = v.epoch
				for id := 0; id < k; id++ {
					d := v.delivered[id]
					if d < 0 {
						t.Errorf("destination %d registered before the read does not resolve in it (epoch %d)", id, v.epoch)
						return
					}
					if d < lastDelivered[id] {
						t.Errorf("dest %d: delivered went backwards: %d after %d", id, d, lastDelivered[id])
						return
					}
					lastDelivered[id] = d
				}
			}
		}()
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
	if n := s.Load().Len(); n <= 16*minCells {
		t.Fatalf("%d destinations registered, want > %d to force the cell array to grow", n, 16*minCells)
	}
}

// TestLoadZeroAlloc proves the reader side — the read section the
// scheduler hot path opens every execution, and a Load of an epoch
// already copied out — allocates nothing.
func TestLoadZeroAlloc(t *testing.T) {
	s := NewStore()
	id := s.DestID("wifi")
	s.RecordRTT(id, 12345)
	s.SetGlobal(2, 7)
	var sink int64
	var g [runtime.NumGlobals]int64
	allocs := testing.AllocsPerRun(1000, func() {
		for {
			seq := s.ReadBegin()
			rtt, lost, delivered, quar := s.ReadDest(id)
			s.ReadGlobals(&g)
			if s.ReadValid(seq) {
				sink += g[2] + rtt + lost + delivered + quar
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("store read section allocates: %v allocs/op", allocs)
	}
	s.Load()
	if allocs := testing.AllocsPerRun(1000, func() { sink += int64(s.Load().Epoch) }); allocs != 0 {
		t.Fatalf("Load of an unchanged epoch allocates: %v allocs/op", allocs)
	}
	_ = sink
}

func TestInstrument(t *testing.T) {
	s := NewStore()
	reg := &obs.Registry{}
	s.Instrument(reg)
	s.SetGlobal(0, 1)
	s.DestID("wifi")
	if v := reg.Counter("xstate.epochs").Value(); v != 2 {
		t.Fatalf("xstate.epochs = %d, want 2", v)
	}
	if v := reg.Counter("xstate.gsets").Value(); v != 1 {
		t.Fatalf("xstate.gsets = %d, want 1", v)
	}
	if v := reg.Gauge("xstate.dests").Value(); v != 1 {
		t.Fatalf("xstate.dests = %d, want 1", v)
	}
	// Instrumenting with nil must be harmless.
	s2 := NewStore()
	s2.Instrument(nil)
	s2.SetGlobal(0, 1)
}

func TestDestEvictionUnderChurn(t *testing.T) {
	s := NewStore()

	// A referenced destination survives eviction no matter how idle.
	pinned := s.DestID("pinned")
	s.RecordRTT(pinned, 10000)
	for i := 0; i < 64; i++ {
		s.SetGlobal(0, int64(i)) // advance epochs
	}
	if n := s.EvictIdle(1); n != 0 {
		t.Fatalf("evicted %d referenced dests, want 0", n)
	}

	// Released + idle long enough → evicted; the record disappears
	// from the registry, the inspection view, and the snapshot slot.
	s.ReleaseDest(pinned)
	if n := s.EvictIdle(1000); n != 0 {
		t.Fatalf("evicted %d not-yet-idle dests, want 0", n)
	}
	for i := 0; i < 8; i++ {
		s.SetGlobal(0, int64(i))
	}
	if n := s.EvictIdle(8); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok := s.LookupDest("pinned"); ok {
		t.Fatal("evicted dest still interned")
	}
	if all := s.Load().All(); len(all) != 0 {
		t.Fatalf("All() still lists evicted dest: %+v", all)
	}
	if d := s.Load().Stats(pinned); d == nil || d.Name != "" || d.SRTTUS != 0 {
		t.Fatalf("evicted slot not zeroed: %+v", d)
	}

	// Churn: connections come and go across many distinct destinations,
	// each released after use and swept periodically. Steady-state dest
	// count — and the snapshot's backing slice — must stay bounded by
	// the live set plus the idle window, not grow with total churn.
	const churn = 500
	for i := 0; i < churn; i++ {
		id := s.DestID(destName(i))
		s.RecordRTT(id, int64(1000+i))
		s.ReleaseDest(id)
		if i%4 == 3 {
			s.EvictIdle(8)
		}
	}
	s.EvictIdle(0)
	if n := s.NumDests(); n != 0 {
		t.Fatalf("steady-state dests = %d after full sweep, want 0", n)
	}
	if got := s.Load().Len(); got > 16 {
		t.Fatalf("snapshot slice grew to %d slots under churn of %d, want <= 16 (slot reuse)", got, churn)
	}

	// Re-registering after eviction reuses a freed slot and starts from
	// zero statistics.
	id := s.DestID("fresh")
	if id >= 16 {
		t.Fatalf("re-registration did not reuse a freed slot: id %d", id)
	}
	if d := s.Load().Stats(id); d.Name != "fresh" || d.Samples != 0 {
		t.Fatalf("reused slot carries stale stats: %+v", d)
	}
}

func destName(i int) string { return "churn-" + strconv.Itoa(i) }

// TestStoreWritesAllocateNothing holds every statistics and globals
// write to the zero-alloc contract of the paths that feed it (the ACK,
// loss, RTO and GSET paths): a write mutates the table in place, so it
// allocates nothing at 1 destination or at 64.
func TestStoreWritesAllocateNothing(t *testing.T) {
	for _, n := range []int{1, 64} {
		s := NewStore()
		for i := 0; i < n; i++ {
			s.DestID("dest" + strconv.Itoa(i))
		}
		var vals [runtime.NumGlobals]int64
		i := 0
		for _, w := range []struct {
			name  string
			write func()
		}{
			{"SetGlobal", func() { s.SetGlobal(i%runtime.NumGlobals, int64(i)) }},
			{"SetGlobals", func() { vals[1] = int64(i); s.SetGlobals(0b11, &vals) }},
			{"RecordRTT", func() { s.RecordRTT(i%n, int64(1000+i)) }},
			{"RecordAck", func() { s.RecordAck(i%n, int64(1000+i), 1460) }},
			{"RecordLoss", func() { s.RecordLoss(i%n, 1) }},
			{"RecordQuarantine", func() { s.RecordQuarantine(i % n) }},
		} {
			e0 := s.Epoch()
			allocs := testing.AllocsPerRun(100, func() { w.write(); i++ })
			if allocs != 0 {
				t.Errorf("%d dests: %s costs %.0f allocs, want 0", n, w.name, allocs)
			}
			if s.Epoch() == e0 {
				t.Errorf("%d dests: %s wrote nothing", n, w.name)
			}
		}
	}
}

// TestWriteReportsItsEpoch: SetGlobal and SetGlobals return the epoch
// their write published — the one whose snapshot first shows the value
// — and a write that writes nothing returns the current epoch.
func TestWriteReportsItsEpoch(t *testing.T) {
	s := NewStore()
	s.DestID("d")
	s.RecordAck(0, 1000, 1)
	if e := s.SetGlobal(4, 9); e != s.Epoch() || s.Load().Globals[4] != 9 {
		t.Fatalf("SetGlobal returned epoch %d; store at %d with G5 = %d", e, s.Epoch(), s.Load().Globals[4])
	}
	vals := [runtime.NumGlobals]int64{1, 2}
	if e := s.SetGlobals(0b10, &vals); e != s.Epoch() {
		t.Fatalf("SetGlobals returned epoch %d, store at %d", e, s.Epoch())
	}
	e := s.Epoch()
	if got := s.SetGlobals(0, &vals); got != e || s.Epoch() != e {
		t.Fatalf("empty SetGlobals returned %d and moved the epoch to %d, want %d", got, s.Epoch(), e)
	}
	if got := s.SetGlobal(-1, 1); got != e || s.Epoch() != e {
		t.Fatalf("out-of-range SetGlobal returned %d and moved the epoch to %d, want %d", got, s.Epoch(), e)
	}
}

// TestRecordAckMatchesTwoWrites pins RecordAck to the pair of writes it
// replaced on the ACK path — RecordRTT, then a Delivered increment that
// ignores non-positive byte counts — with one epoch for the pair, or
// none when both inputs are ignored.
func TestRecordAckMatchesTwoWrites(t *testing.T) {
	for _, prior := range []int64{0, 20000} { // unseeded, and an estimate to blend into
		for _, c := range []struct{ rtt, bytes int64 }{
			{12000, 1500}, {0, 1500}, {-5, 1500}, {12000, 0}, {12000, -1}, {0, 0}, {-1, -1},
		} {
			two, one := NewStore(), NewStore()
			id := two.DestID("d")
			one.DestID("d")
			two.RecordRTT(id, prior)
			one.RecordRTT(id, prior)

			two.RecordRTT(id, c.rtt)
			want := *two.Load().Stats(id)
			if c.bytes > 0 {
				want.Delivered += c.bytes
			}
			e0 := one.Epoch()
			one.RecordAck(id, c.rtt, c.bytes)
			if got := *one.Load().Stats(id); got != want {
				t.Errorf("prior %d, RecordAck(%d, %d) = %+v, want %+v", prior, c.rtt, c.bytes, got, want)
			}
			wantEpochs := uint64(1)
			if c.rtt <= 0 && c.bytes <= 0 {
				wantEpochs = 0
			}
			if got := one.Epoch() - e0; got != wantEpochs {
				t.Errorf("prior %d, RecordAck(%d, %d) published %d epochs, want %d", prior, c.rtt, c.bytes, got, wantEpochs)
			}
		}
	}
	s := NewStore()
	s.DestID("d")
	e0 := s.Epoch()
	s.RecordAck(99, 1000, 1500)
	if s.Epoch() != e0 {
		t.Errorf("RecordAck on an unknown id published an epoch")
	}
}

// Stats returns the statistics for destination id, or nil when the id
// is unknown to this epoch (registered after the snapshot was taken).
func (s *Snapshot) Stats(id int) *DestStats {
	if s == nil || id < 0 || id >= len(s.dests) {
		return nil
	}
	return &s.dests[id]
}

// LookupDest returns the dense index for name without registering it;
// ok is false when the name is unknown.
func (s *Store) LookupDest(name string) (id int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok = s.ids[name]
	return id, ok
}
