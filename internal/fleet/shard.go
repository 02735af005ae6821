package fleet

import (
	"fmt"
	"time"

	"progmp/internal/guard"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
)

// wheelBuckets is the hashed timing wheel's bucket count (power of
// two). With a coupled fleet's 5 ms slice the wheel spans 1.28 s per
// wrap; entries further out simply keep their absolute due slice and
// ride the wrap (classic hashed wheel semantics). An uncoupled fleet's
// one slice spans the horizon, so every world it holds is due in slice
// 1; a recycling shard (Config.recycles) holds one and needs no wheel.
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
	// conns are the worlds the shard keeps: every one of its
	// connections', or, when it recycles, the one it resets for each.
	conns []*fleetConn
	w     wheel
	out   *tally

	// specs are the two paths of a world, reused for every world the
	// shard builds or resets: the rate curves and the loss model are
	// built once, and so is each destination group's pair of names.
	specs  [2]mptcp.SubflowSpec
	groups map[int][2]string
	// pages are the send-window pages the shard's worlds drained, for
	// their next bursts.
	pages mptcp.PagePool

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
	var loss netsim.LossModel
	if cfg.LossProb > 0 {
		loss = netsim.BernoulliLoss{P: cfg.LossProb}
	}
	sh.specs = [2]mptcp.SubflowSpec{
		{Path: netsim.PathConfig{Rate: netsim.ConstantRate(3e6), Delay: 5 * time.Millisecond}},
		{Path: netsim.PathConfig{Rate: netsim.ConstantRate(8e6), Delay: 20 * time.Millisecond, Loss: loss}, Backup: true},
	}
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

// paths returns connection idx's subflow specs: WiFi and a backup LTE
// path that drops at LossProb, named per destination group when
// DestGroups is set.
// The specs live in the shard and are rewritten by the next call.
func (sh *shard) paths(idx int) []mptcp.SubflowSpec {
	wifi, lte := "wifi", "lte"
	if n := sh.cfg.DestGroups; n > 0 {
		g := idx % n
		names, ok := sh.groups[g]
		if !ok {
			if sh.groups == nil {
				sh.groups = make(map[int][2]string)
			}
			names = [2]string{fmt.Sprintf("wifi.g%d", g), fmt.Sprintf("lte.g%d", g)}
			sh.groups[g] = names
		}
		wifi, lte = names[0], names[1]
	}
	sh.specs[0].Path.Name, sh.specs[1].Path.Name = wifi, lte
	return sh.specs[:]
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

// run drives the shard's connections to the horizon and folds each
// into the tally. A recycling shard holds the one world Run built for
// it and runs its connections through it in turn; a shard that holds
// every one of its worlds (a coupled fleet's, or worlds built by hand)
// runs them on the wheel.
//
//progmp:deterministic
func (sh *shard) run() {
	if sh.cfg.recycles() && len(sh.conns) == 1 {
		sh.runInTurn()
		return
	}
	sh.runWheel()
	for _, fc := range sh.conns {
		sh.out.fold(fc)
	}
}

// runInTurn runs the shard's connections one after another, in index
// order, each to the horizon in one visit, and folds each as it ends.
// The shard holds one world, built for its first connection (Run builds
// it), and resets it for each next one. A world whose first event lies
// past the horizon is retired unvisited.
//
//progmp:deterministic
func (sh *shard) runInTurn() {
	cfg, fc := sh.cfg, sh.conns[0]
	sh.gConns.Set(int64((cfg.Conns - fc.idx + cfg.Shards - 1) / cfg.Shards))
	for idx := fc.idx; idx < cfg.Conns; idx += cfg.Shards {
		if idx != fc.idx {
			fc.reset(idx)
		}
		if at, ok := fc.eng.NextEventAt(); ok && at <= cfg.Duration {
			fc.eng.RunUntil(cfg.Duration)
			sh.mVisits.Add(1)
		}
		sh.retire(fc)
		sh.out.fold(fc)
	}
}

// runWheel drives the shard's worlds, all built, to the horizon: per
// slice, pop the due batch off the wheel, advance each engine with one
// RunUntil (a visit), and re-file each at its next event.
//
//progmp:deterministic
func (sh *shard) runWheel() {
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
