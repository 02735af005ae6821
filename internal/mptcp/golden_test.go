package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// goldenShape is one fixed-seed transfer whose whole trajectory is
// pinned by TestTransferDigestGolden.
type goldenShape struct {
	name      string
	scheduler string
	seed      int64
	// chunk > 0 writes chunk bytes every period until virtual; chunk == 0
	// writes bulk bytes once at t=0.
	chunk   int
	period  time.Duration
	virtual time.Duration
	bulk    int
	cfg     Config
	specs   func(eng *netsim.Engine) []SubflowSpec
	want    uint64
}

func goldenPath(name string, rate float64, delay time.Duration, loss float64) netsim.PathConfig {
	cfg := netsim.PathConfig{Name: name, Rate: netsim.ConstantRate(rate), Delay: delay}
	if loss > 0 {
		cfg.Loss = netsim.BernoulliLoss{P: loss}
	}
	return cfg
}

func twoPaths(*netsim.Engine) []SubflowSpec {
	return []SubflowSpec{
		{Path: goldenPath("wifi", 3e6, 5*time.Millisecond, 0)},
		{Path: goldenPath("lte", 8e6, 20*time.Millisecond, 0.01)},
	}
}

func fourPaths(eng *netsim.Engine) []SubflowSpec {
	return append(twoPaths(eng),
		SubflowSpec{Path: goldenPath("eth", 5e6, 12*time.Millisecond, 0)},
		SubflowSpec{Path: goldenPath("sat", 2e6, 30*time.Millisecond, 0.01)},
	)
}

// chaosPaths exercises every forwarding branch of Path: loss, extra
// reordering delay, duplication, and two access links chained through
// Next into one shared (itself lossy and duplicating) bottleneck.
func chaosPaths(eng *netsim.Engine) []SubflowSpec {
	core := netsim.NewPath(eng, netsim.PathConfig{
		Name: "core", Rate: netsim.ConstantRate(6e6), Delay: 8 * time.Millisecond,
		Loss: netsim.BernoulliLoss{P: 0.005}, DupProb: 0.01, Jitter: time.Millisecond,
	})
	a := goldenPath("a", 4e6, 3*time.Millisecond, 0.02)
	a.ReorderProb, a.DupProb, a.Next = 0.05, 0.02, core
	b := goldenPath("b", 5e6, 6*time.Millisecond, 0.01)
	b.ReorderProb, b.ReorderBy, b.DupProb, b.DupDelay, b.Next = 0.03, 9*time.Millisecond, 0.03, time.Millisecond, core
	c := goldenPath("c", 2e6, 15*time.Millisecond, 0.03)
	c.Jitter, c.DupProb = 2*time.Millisecond, 0.02
	return []SubflowSpec{{Path: a}, {Path: b}, {Path: c, StartAt: 300 * time.Millisecond}}
}

// Digests recorded on commit 6b557da (the parent of the typed-event
// substrate rewrite), before any change to netsim or mptcp.
var goldenShapes = []goldenShape{
	{name: "stream", scheduler: "minRTT", seed: 7, chunk: 25000, period: 10 * time.Millisecond,
		virtual: 6 * time.Second, specs: twoPaths, want: 0xe8399bb3d02423d0},
	{name: "bulk", scheduler: "minRTT", seed: 7, bulk: 6 << 20, specs: twoPaths, want: 0x5f089d507e93954b},
	{name: "redundant4", scheduler: "redundant", seed: 7, chunk: 25000, period: 10 * time.Millisecond,
		virtual: 3 * time.Second, specs: fourPaths, want: 0xca21a3650dcd3974},
	{name: "chaos", scheduler: "minRTT", seed: 11, chunk: 20000, period: 10 * time.Millisecond,
		virtual: 4 * time.Second, specs: chaosPaths, want: 0x92e51c82752c37e9},
	{name: "chaosRedundantLegacy", scheduler: "redundant", seed: 13, bulk: 1 << 20,
		cfg: Config{ReceiverMode: ReceiverLegacy}, specs: chaosPaths, want: 0x26843a321e6c1683},
}

// goldenChaos pins two chaos soaks (native MinRTT, seed 42, path
// manager attached) by their outcome and per-subflow counters. In
// sbfdeath the path manager closes a subflow with data outstanding, so
// it reaches Close, inFlightElsewhere and RTOs over a full window,
// which none of the shapes above do; meltdown adds bursty loss, flaps
// and reordering. Recorded on commit c262091, before the send window
// became a ring.
var goldenChaos = []struct {
	scenario string
	want     uint64
}{
	{"sbfdeath", 0xe79ac3e1b61621fa},
	{"meltdown", 0x464fc1a0bf443b08},
}

// fnv is an FNV-1a digest over 64-bit words.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (d *fnv) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ fnv(v&0xff)) * 1099511628211
		v >>= 8
	}
}

// mixSubflows adds each subflow's transmission counters.
func (d *fnv) mixSubflows(conn *Conn) {
	for _, s := range conn.Subflows() {
		d.mix(uint64(s.PktsSent))
		d.mix(uint64(s.Retransmissions))
		d.mix(uint64(s.RTOs))
		d.mix(uint64(s.LossEpisodes))
	}
}

// feed posts the shape's writes on eng and returns their total.
func (g goldenShape) feed(eng *netsim.Engine, conn *Conn) int {
	if g.chunk == 0 {
		eng.At(0, func() { conn.Send(g.bulk, 0) })
		return g.bulk
	}
	n := int(g.virtual / g.period)
	for i := 0; i < n; i++ {
		eng.At(time.Duration(i)*g.period, func() { conn.Send(g.chunk, 0) })
	}
	return n * g.chunk
}

// runGolden drives one shape to its final ACK and returns the FNV-1a
// digest of every (seq, deliveredAt), the final-ACK time, the fired
// event count and each subflow's transmission counters.
func runGolden(t *testing.T, g goldenShape) uint64 {
	t.Helper()
	eng := netsim.NewEngine(g.seed)
	conn, err := Dial(eng, g.cfg, g.specs(eng)...)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad(g.scheduler, schedlib.All[g.scheduler], core.BackendCompiled))

	digest := newFNV()
	mix := digest.mix
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	conn.Receiver().AddDeliveryHook(func(seq int64, _ int, at time.Duration) {
		mix(uint64(seq))
		mix(uint64(at))
	})
	total := g.feed(eng, conn)
	events := 0
	for deadline := g.virtual + 60*time.Second; !conn.AllAcked() || chk.bytes < int64(total); events++ {
		if !eng.Step() || eng.Now() > deadline {
			t.Fatalf("%s: transfer incomplete at %v: %d of %d bytes delivered", g.name, eng.Now(), chk.bytes, total)
		}
	}
	mix(uint64(eng.Now()))
	mix(uint64(events))
	digest.mixSubflows(conn)
	return uint64(digest)
}

// TestTransferDigestGolden is the substrate's trajectory safety net: a
// rewrite of netsim's event representation or of mptcp's per-segment
// bookkeeping must reproduce every delivery time, the event count and
// the retransmission counters of these five transfers exactly, and the
// outcome and counters of the chaos soaks.
func TestTransferDigestGolden(t *testing.T) {
	for _, g := range goldenShapes {
		t.Run(g.name, func(t *testing.T) {
			if got := runGolden(t, g); got != g.want {
				t.Errorf("%s: trajectory digest %#x, want %#x", g.name, got, g.want)
			}
		})
	}
	for _, g := range goldenChaos {
		t.Run("chaos_"+g.scenario, func(t *testing.T) {
			res, conn, err := runChaos(ChaosScenarios[g.scenario], 42, nil)
			if err != nil {
				t.Fatal(err)
			}
			digest := newFNV()
			digest.mix(uint64(res.FCT))
			digest.mix(uint64(res.Segments))
			digest.mix(uint64(res.ClosedByManager))
			digest.mix(uint64(res.Promotions))
			digest.mixSubflows(conn)
			if got := uint64(digest); got != g.want {
				t.Errorf("%s: chaos digest %#x, want %#x", g.scenario, got, g.want)
			}
		})
	}
}
