package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/runtime"
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

// countingCC is a congestion control that counts, per subflow id, the
// loss responses markLost asks of the one it wraps. markLost is their
// only caller and makes one per episode: OnRTO for an episode an RTO
// opened, OnLoss for one a SACK opened. So a subflow's RTOs are its
// OnRTO calls, and its loss episodes its OnRTO and OnLoss calls
// together. The counts live in the value, so counting allocates
// nothing.
type countingCC struct {
	CongestionControl
	rtos, losses [runtime.MaxSubflows]int64
}

func (c *countingCC) OnRTO(conn *Conn, sbf *Subflow) {
	c.rtos[sbf.id]++
	c.CongestionControl.OnRTO(conn, sbf)
}

func (c *countingCC) OnLoss(conn *Conn, sbf *Subflow) {
	c.losses[sbf.id]++
	c.CongestionControl.OnLoss(conn, sbf)
}

// RTOs returns how many RTOs sbf took.
func (c *countingCC) RTOs(sbf *Subflow) int64 { return c.rtos[sbf.id] }

// LossEpisodes returns how many loss episodes sbf entered.
func (c *countingCC) LossEpisodes(sbf *Subflow) int64 { return c.rtos[sbf.id] + c.losses[sbf.id] }

// counted returns cfg with its congestion control (LIA when unset)
// wrapped in a countingCC; countsOf finds the wrapper again on a
// connection dialled with it.
func counted(cfg Config) Config {
	cfg.applyDefaults()
	cfg.CC = &countingCC{CongestionControl: cfg.CC}
	return cfg
}

func countsOf(conn *Conn) *countingCC { return conn.cfg.CC.(*countingCC) }

// mixSubflows adds each subflow's transmission counters. conn was
// dialled with a counted Config.
func (d *fnv) mixSubflows(conn *Conn) {
	cc := countsOf(conn)
	for _, s := range conn.Subflows() {
		d.mix(uint64(s.PktsSent))
		d.mix(uint64(s.Retransmissions))
		d.mix(uint64(cc.RTOs(s)))
		d.mix(uint64(cc.LossEpisodes(s)))
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
	conn, err := Dial(eng, counted(g.cfg), g.specs(eng)...)
	if err != nil {
		t.Fatal(err)
	}
	return driveGolden(t, g, eng, conn)
}

// driveGolden runs the shape on conn, dialled (or reset) over the
// shape's paths on eng seeded with the shape's seed, with a counted
// Config and no scheduler installed.
func driveGolden(t *testing.T, g goldenShape, eng *netsim.Engine, conn *Conn) uint64 {
	t.Helper()
	cc := countsOf(conn)
	*cc = countingCC{CongestionControl: cc.CongestionControl}
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
			res, conn, err := runChaos(ChaosScenarios[g.scenario], 42, counted(Config{}), nil)
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

// TestResetReproducesGoldenShapes: a connection reset in place reproduces
// every golden trajectory, as a freshly dialled one does. Each is first
// cut mid-transfer in another world — four paths, the redundant program
// (which asks for sent cursors), windows open and packets in the air —
// then its engine and connection are reset to the shape's seed and
// paths: two, three or four subflows where there were four.
func TestResetReproducesGoldenShapes(t *testing.T) {
	for _, g := range goldenShapes {
		t.Run(g.name, func(t *testing.T) {
			eng := netsim.NewEngine(g.seed + 1)
			conn, err := Dial(eng, counted(g.cfg), fourPaths(eng)...)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetScheduler(core.MustLoad("redundant", schedlib.All["redundant"], core.BackendCompiled))
			eng.At(0, func() { conn.Send(16<<20, 0) })
			eng.RunUntil(300 * time.Millisecond)
			if conn.UnackedSegments() == 0 || conn.sentAsked == 0 {
				t.Fatalf("the first world was not cut mid-transfer: %d unacked, sent cursors %b", conn.UnackedSegments(), conn.sentAsked)
			}

			eng.Reset(g.seed)
			conn.SetScheduler(nil)
			if err := conn.Reset(g.specs(eng)...); err != nil {
				t.Fatal(err)
			}
			if got := driveGolden(t, g, eng, conn); got != g.want {
				t.Errorf("%s: reset connection's trajectory digest %#x, want %#x", g.name, got, g.want)
			}
		})
	}
}

// TestRedundantStepsGolden pins the VM work of a fixed transfer the
// benchmark's redundant_4path resembles: the redundant program on the
// four paths, 25 000 B every 10 ms for 2 s, run to the final ACK. Both
// counts are deterministic, so a lowering change shows here exactly,
// under no timing noise: the executions must not move (what the
// program decides does not change) while the steps may fall. Recorded
// when a scan with a !p.SENT_ON(sbf) filter began past the packets sent
// on sbf; before that, when every such scan walked QU from its head,
// the same 13 188 executions ran 4 794 326 steps.
func TestRedundantStepsGolden(t *testing.T) {
	const wantExecs, wantSteps = 13_188, 772_100
	eng := netsim.NewEngine(7)
	conn, err := Dial(eng, Config{}, fourPaths(eng)...)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.MustLoad("redundant", schedlib.All["redundant"], core.BackendVM)
	sched.EnableStepMetrics()
	conn.SetScheduler(sched)
	g := goldenShape{chunk: 25000, period: 10 * time.Millisecond, virtual: 2 * time.Second}
	g.feed(eng, conn)
	eng.RunUntil(g.virtual)
	for deadline := g.virtual + 60*time.Second; !conn.AllAcked(); {
		if !eng.Step() || eng.Now() > deadline {
			t.Fatalf("transfer incomplete at %v", eng.Now())
		}
	}
	execs, steps := conn.SchedulerExecutions, sched.Stats().Steps
	t.Logf("%d executions, %d VM steps (%.1f per execution)", execs, steps, float64(steps)/float64(execs))
	if execs != wantExecs || steps != wantSteps {
		t.Errorf("%d executions, %d steps; want %d, %d", execs, steps, wantExecs, wantSteps)
	}
}
