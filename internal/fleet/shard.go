package fleet

import (
	"fmt"
	"math"
	"time"

	"progmp/internal/guard"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
)

// evictEvery is how many slices pass between shared-store idle sweeps
// per shard; evictIdleEpochs is the staleness bar a destination record
// must clear (store epochs advance on every record write, so this is
// deliberately generous).
const (
	evictEvery      = 64
	evictIdleEpochs = 1024
)

// shard is one per-core driver: a goroutine-owned subset of the
// fleet's connections and the shard-local observability registry
// every connection resolves its handles from.
type shard struct {
	cfg   *Config
	sched mptcp.Scheduler
	// conns are the worlds the shard keeps: every one of its
	// connections', or, when it recycles, the one it resets for each.
	conns []*fleetConn
	out   *tally

	// specs are the two paths of a world, reused for every world the
	// shard builds or resets: the rate curves and the loss model are
	// built once, and so is each destination group's pair of names.
	specs  [2]mptcp.SubflowSpec
	groups map[int][2]string
	// The shard's scratch, which its worlds draw from as they take
	// turns: the events and flights their engines freed (given back
	// after each visit), the send-window pages their windows drained,
	// and the arena every scheduler execution runs in. A world keeps
	// only its state.
	pool   netsim.Pool
	pages  mptcp.PagePool
	arenas mptcp.ArenaPool

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

// retire marks a connection done (its engine drained, or its next
// event past the horizon) and folds it into the tally: its shared-store
// destination references are released so idle sweeps can reclaim the
// records. The run loop retires each connection once.
//
//progmp:deterministic
func (sh *shard) retire(fc *fleetConn) {
	fc.conn.ReleaseDests()
	sh.mRetired.Add(1)
	sh.out.fold(fc)
}

// world returns the world of the shard's i-th connection, in index
// order: the shard's own world for it or, when the shard recycles, the
// shard's one world reset for it. A recycling shard runs one window, so
// it asks for each connection once, in order, and each reset moves the
// world on to the next connection.
func (sh *shard) world(i int) *fleetConn {
	if i < len(sh.conns) {
		return sh.conns[i]
	}
	fc := sh.conns[0]
	if err := fc.reset(fc.idx + sh.cfg.Shards); err != nil {
		panic(err) // buildConn dialled the same two paths
	}
	return fc
}

// run drives the shard's connections to the horizon in windows of
// cfg.slice; an uncoupled fleet's window is the horizon. Each window
// visits, in connection-index order (the package's visit rule), every
// connection whose next event falls no later than the window's end: it
// runs the world to the window's end with one RunUntil (a visit) and
// reads back its next event. A connection with no event left, or none
// inside the horizon, retires and is never due again.
//
//progmp:deterministic
func (sh *shard) run() {
	horizon, slice := sh.cfg.Duration, sh.cfg.slice
	conns := (sh.cfg.Conns - sh.conns[0].idx + sh.cfg.Shards - 1) / sh.cfg.Shards
	sh.gConns.Set(int64(conns))
	const never = time.Duration(math.MaxInt64)
	// Every connection is due in the first window; its world's next
	// event is read on its turn.
	due := make([]time.Duration, conns)
	for w := 1; ; w++ {
		now := min(time.Duration(w)*slice, horizon)
		for i, at := range due {
			if at > now {
				continue
			}
			fc := sh.world(i)
			if at, ok := fc.eng.NextEventAt(); ok && at <= now {
				fc.eng.RunUntil(now)
				sh.mVisits.Add(1)
			}
			if at, ok := fc.eng.NextEventAt(); ok && at <= horizon {
				due[i] = at
				continue
			}
			// Done, or parked: the next event (a think-time wakeup, a
			// long RTO) lands past the horizon; the soak never services
			// it, so the connection is done for accounting.
			due[i] = never
			sh.retire(fc)
		}
		if sh.cfg.Store != nil && w%evictEvery == 0 {
			sh.evicted += int64(sh.cfg.Store.EvictIdle(evictIdleEpochs))
		}
		if now == horizon {
			break
		}
	}
}
