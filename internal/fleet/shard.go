package fleet

import (
	"time"

	"progmp/internal/guard"
	"progmp/internal/mptcp"
	"progmp/internal/obs"
)

// wheelBuckets is the hashed timing wheel's bucket count (power of
// two). With a coupled fleet's 5 ms slice the wheel spans 1.28 s per
// wrap; entries further out simply keep their absolute due slice and
// ride the wrap (classic hashed wheel semantics). An uncoupled fleet's
// one slice spans the horizon, so every world is due in slice 1.
const wheelBuckets = 256

// evictEvery is how many slices pass between shared-store idle sweeps
// per shard; evictIdleEpochs is the staleness bar a destination record
// must clear (store epochs advance on every record write, so this is
// deliberately generous).
const (
	evictEvery      = 64
	evictIdleEpochs = 1024
)

// wheelEntry files one connection for service at an absolute slice.
type wheelEntry struct {
	conn int32
	due  uint64
}

// wheel is a hashed timing wheel over virtual-time slices: bucket
// cur&mask holds the connections due for service this slice (plus any
// future-wrap entries, which advance re-files).
type wheel struct {
	slice   time.Duration
	buckets [wheelBuckets][]wheelEntry
	cur     uint64
}

// sliceOf maps an event time to the slice that services it (the first
// slice whose RunUntil deadline is >= at), never earlier than the next
// slice.
//
//progmp:hotpath
//progmp:deterministic
func (w *wheel) sliceOf(at time.Duration) uint64 {
	s := uint64((at + w.slice - 1) / w.slice)
	if s <= w.cur {
		s = w.cur + 1
	}
	return s
}

// schedule files conn at absolute slice due.
//
//progmp:hotpath
//progmp:deterministic
func (w *wheel) schedule(conn int32, due uint64) {
	b := &w.buckets[due%wheelBuckets]
	//progmp:ignore hotpath amortized: bucket capacity is retained across wheel wraps
	*b = append(*b, wheelEntry{conn: conn, due: due})
}

// advance moves to the next slice and returns the connections due in
// it. Entries hashed into the bucket for a later wrap are kept (in
// place, preserving insertion order) for their own slice.
//
//progmp:hotpath
//progmp:deterministic
func (w *wheel) advance(ready []int32) []int32 {
	w.cur++
	b := &w.buckets[w.cur%wheelBuckets]
	kept := (*b)[:0]
	for _, e := range *b {
		if e.due == w.cur {
			//progmp:ignore hotpath amortized: the caller recycles the ready batch across slices
			ready = append(ready, e.conn)
		} else {
			//progmp:ignore hotpath in-place: kept re-files into the bucket's own storage
			kept = append(kept, e)
		}
	}
	*b = kept
	return ready
}

// shard is one per-core driver: a goroutine-owned subset of the
// fleet's connections, a timer wheel batching their wakeups, and the
// shard-local observability registry every connection resolves its
// handles from.
type shard struct {
	cfg   *Config
	sched mptcp.Scheduler
	conns []*fleetConn
	w     wheel

	reg      *obs.Registry
	mDelivUS *obs.Histogram
	mRetired *obs.Counter
	mVisits  *obs.Counter
	gConns   *obs.Gauge
	fleet    *guard.Fleet

	evicted int64
}

func newShard(cfg *Config, sched mptcp.Scheduler) *shard {
	sh := &shard{
		cfg:   cfg,
		sched: sched,
		reg:   obs.NewRegistry(),
	}
	sh.w.slice = cfg.slice
	sh.mDelivUS = sh.reg.Histogram("fleet.delivery_us")
	sh.mRetired = sh.reg.Counter("fleet.retired")
	sh.mVisits = sh.reg.Counter("fleet.visits")
	sh.gConns = sh.reg.Gauge("fleet.conns")
	if cfg.Guard {
		sh.fleet = guard.NewFleet(guard.FleetConfig{})
		sh.fleet.Instrument(nil, sh.reg)
	}
	return sh
}

// retire marks a connection done (its engine drained): its shared-
// store destination references are released so idle sweeps can
// reclaim the records.
//
//progmp:deterministic
func (sh *shard) retire(fc *fleetConn) {
	if fc.retired {
		return
	}
	fc.retired = true
	fc.conn.ReleaseDests()
	sh.mRetired.Add(1)
}

// run drives the shard's connections to the horizon: per slice, pop
// the due batch off the wheel, advance each engine with one RunUntil
// (a visit), and re-file each at its next event. When the slice is the
// horizon, that is one visit per world in connection order.
//
//progmp:deterministic
func (sh *shard) run() {
	sh.gConns.Set(int64(len(sh.conns)))
	horizon, slice := sh.cfg.Duration, sh.cfg.slice
	for i, fc := range sh.conns {
		if at, ok := fc.eng.NextEventAt(); ok {
			sh.w.schedule(int32(i), sh.w.sliceOf(at))
		} else {
			sh.retire(fc)
		}
	}
	last := uint64((horizon + slice - 1) / slice)
	var ready []int32
	for s := uint64(1); s <= last; s++ {
		now := time.Duration(s) * slice
		if now > horizon {
			now = horizon
		}
		ready = sh.w.advance(ready[:0])
		for _, ci := range ready {
			fc := sh.conns[ci]
			fc.eng.RunUntil(now)
			sh.mVisits.Add(1)
			if at, ok := fc.eng.NextEventAt(); ok {
				if at <= horizon {
					sh.w.schedule(ci, sh.w.sliceOf(at))
					continue
				}
				// Parked: the next event (a think-time wakeup, a long
				// RTO) lands past the horizon; the soak never services
				// it, so the connection is done for accounting.
			}
			sh.retire(fc)
		}
		if sh.cfg.Store != nil && s%evictEvery == 0 {
			sh.evicted += int64(sh.cfg.Store.EvictIdle(evictIdleEpochs))
		}
	}
	// Horizon reached: every connection still filed on the wheel has
	// already run past its last in-horizon event; release whatever
	// store references remain.
	for _, fc := range sh.conns {
		sh.retire(fc)
	}
}
