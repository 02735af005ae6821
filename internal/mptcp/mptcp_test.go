package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// testNet describes one test path.
type testNet struct {
	rate  float64
	delay time.Duration
	loss  float64
}

// buildConn wires a connection over the given paths with the named
// schedlib scheduler on the compiled back-end.
func buildConn(t *testing.T, seed int64, cfg Config, scheduler string, paths ...testNet) (*netsim.Engine, *Conn) {
	t.Helper()
	eng := netsim.NewEngine(seed)
	conn := NewConn(eng, cfg)
	for i, p := range paths {
		var loss netsim.LossModel
		if p.loss > 0 {
			loss = netsim.BernoulliLoss{P: p.loss}
		}
		link := netsim.NewLink(eng, netsim.PathConfig{
			Name:  "path",
			Rate:  netsim.ConstantRate(p.rate),
			Delay: p.delay,
			Loss:  loss,
		})
		if _, err := conn.AddSubflow(SubflowConfig{Name: "sbf", Link: link, Backup: i > 0 && false}); err != nil {
			t.Fatalf("AddSubflow: %v", err)
		}
	}
	src, ok := schedlib.All[scheduler]
	if !ok {
		t.Fatalf("unknown scheduler %q", scheduler)
	}
	conn.SetScheduler(core.MustLoad(scheduler, src, core.BackendCompiled))
	return eng, conn
}

// deliveryChecker asserts exactly-once, in-order delivery.
type deliveryChecker struct {
	t        *testing.T
	next     int64
	bytes    int64
	lastAt   time.Duration
	segments int
}

func (d *deliveryChecker) attach(conn *Conn) {
	conn.Receiver().OnDeliver(func(seq int64, size int, at time.Duration) {
		if seq != d.next {
			d.t.Errorf("out-of-order delivery: got seq %d, want %d", seq, d.next)
		}
		d.next = seq + 1
		d.bytes += int64(size)
		d.lastAt = at
		d.segments++
	})
}

func TestBulkTransferTwoSubflows(t *testing.T) {
	eng, conn := buildConn(t, 1, Config{}, "minRTT",
		testNet{rate: 3e6, delay: 5 * time.Millisecond},
		testNet{rate: 8e6, delay: 20 * time.Millisecond},
	)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 2 << 20
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(30 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("transfer incomplete: Q=%d unacked=%d (RQ=%d)", conn.QueuedSegments(), conn.UnackedSegments(), conn.reinjectSegments())
	}
	if chk.bytes != total {
		t.Errorf("delivered %d bytes, want %d", chk.bytes, total)
	}
	// Both subflows should carry data for a 2 MiB bulk transfer over
	// 3+8 MB/s paths.
	if conn.subflows[0].BytesSent == 0 || conn.subflows[1].BytesSent == 0 {
		t.Errorf("bulk transfer did not use both subflows: %d / %d bytes",
			conn.subflows[0].BytesSent, conn.subflows[1].BytesSent)
	}
	// Aggregate goodput must be in the right ballpark: 2 MiB over
	// 11 MB/s ≈ 0.19 s plus slow-start ramp on a 40 ms-RTT path.
	if chk.lastAt > 800*time.Millisecond {
		t.Errorf("FCT %v too slow for aggregated 11 MB/s", chk.lastAt)
	}
}

func TestTransferCompletesUnderLoss(t *testing.T) {
	for _, sched := range []string{"minRTT", "redundant", "opportunisticRedundant", "redundantIfNoQ", "roundRobin"} {
		t.Run(sched, func(t *testing.T) {
			eng, conn := buildConn(t, 7, Config{}, sched,
				testNet{rate: 2e6, delay: 10 * time.Millisecond, loss: 0.02},
				testNet{rate: 2e6, delay: 15 * time.Millisecond, loss: 0.02},
			)
			chk := &deliveryChecker{t: t}
			chk.attach(conn)
			const total = 256 << 10
			eng.After(0, func() { conn.Send(total, 0) })
			eng.RunUntil(60 * time.Second)
			if !conn.AllAcked() {
				t.Fatalf("transfer incomplete under loss: Q=%d unacked=%d (RQ=%d)",
					conn.QueuedSegments(), conn.UnackedSegments(), conn.reinjectSegments())
			}
			if chk.bytes != total {
				t.Errorf("delivered %d bytes, want %d (exactly once)", chk.bytes, total)
			}
		})
	}
}

func TestSingleSubflowLossRecovery(t *testing.T) {
	eng, conn := buildConn(t, 3, Config{}, "minRTT",
		testNet{rate: 1e6, delay: 10 * time.Millisecond, loss: 0.05},
	)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 256 << 10
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(60 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("single-subflow transfer incomplete")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d, want %d", chk.bytes, total)
	}
	if conn.subflows[0].Retransmissions == 0 {
		t.Errorf("5%% loss must force retransmissions")
	}
}

func TestRTTEstimation(t *testing.T) {
	eng, conn := buildConn(t, 1, Config{}, "minRTT",
		testNet{rate: 10e6, delay: 25 * time.Millisecond},
	)
	eng.After(0, func() { conn.Send(200<<10, 0) })
	eng.RunUntil(10 * time.Second)
	srtt := conn.subflows[0].SRTT()
	// One-way 25 ms → RTT 50 ms plus serialization.
	if srtt < 45*time.Millisecond || srtt > 80*time.Millisecond {
		t.Errorf("SRTT = %v, want ≈ 50 ms", srtt)
	}
	if got := conn.subflows[0].avgRTT(); got < 45*time.Millisecond || got > 80*time.Millisecond {
		t.Errorf("avg RTT = %v, want ≈ 50 ms", got)
	}
}

func TestCongestionWindowDynamics(t *testing.T) {
	// Slow start growth on a clean path.
	eng, conn := buildConn(t, 1, Config{CC: Reno{}}, "minRTT",
		testNet{rate: 20e6, delay: 10 * time.Millisecond},
	)
	initial := float64(initialCwnd)
	eng.After(0, func() { conn.Send(1<<20, 0) })
	eng.RunUntil(2 * time.Second)
	if got := conn.subflows[0].Cwnd(); got <= initial {
		t.Errorf("cwnd = %v after clean 1 MiB, want growth beyond %v", got, initial)
	}

	// A lossy path must trigger multiplicative decrease episodes.
	eng2, conn2 := buildConn(t, 5, counted(Config{CC: Reno{}}), "minRTT",
		testNet{rate: 20e6, delay: 10 * time.Millisecond, loss: 0.02},
	)
	eng2.After(0, func() { conn2.Send(1<<20, 0) })
	eng2.RunUntil(30 * time.Second)
	if countsOf(conn2).LossEpisodes(conn2.subflows[0]) == 0 {
		t.Errorf("no loss episodes on a 2%% loss path")
	}
}

func TestLIACoupledIncreaseGentlerThanReno(t *testing.T) {
	run := func(cc CongestionControl) float64 {
		eng, conn := buildConn(t, 9, Config{CC: cc}, "minRTT",
			testNet{rate: 4e6, delay: 20 * time.Millisecond},
			testNet{rate: 4e6, delay: 20 * time.Millisecond},
		)
		eng.After(0, func() { conn.Send(4<<20, 0) })
		eng.RunUntil(3 * time.Second)
		return conn.subflows[0].Cwnd() + conn.subflows[1].Cwnd()
	}
	reno := run(Reno{})
	lia := run(LIA{})
	if lia > reno {
		t.Errorf("LIA aggregate cwnd %v should not exceed uncoupled Reno %v", lia, reno)
	}
}

func TestReceiveWindowBlocksSender(t *testing.T) {
	// A tiny receive buffer with a slow second path forces meta
	// head-of-line blocking; in-flight meta bytes must never exceed the
	// advertised window.
	eng, conn := buildConn(t, 2, Config{RcvBuf: 16 << 10}, "minRTT",
		testNet{rate: 4e6, delay: 5 * time.Millisecond},
		testNet{rate: 1e6, delay: 60 * time.Millisecond},
	)
	exceeded := false
	check := func() {
		var inFlight int64
		for _, l := range []*packetList{&conn.queues[inQU], &conn.queues[inRQ]} {
			for _, p := range l.all() {
				inFlight += int64(p.Size)
			}
		}
		if inFlight > int64(conn.cfg.RcvBuf) {
			exceeded = true
		}
	}
	for at := time.Duration(0); at < 2*time.Second; at += 10 * time.Millisecond {
		eng.At(at, check)
	}
	eng.After(0, func() { conn.Send(512<<10, 0) })
	eng.RunUntil(30 * time.Second)
	if exceeded {
		t.Errorf("sender violated the receive window")
	}
	if !conn.AllAcked() {
		t.Fatalf("transfer incomplete under small rwnd")
	}
}

func TestSubflowCloseReinjection(t *testing.T) {
	eng, conn := buildConn(t, 4, Config{}, "minRTT",
		testNet{rate: 2e6, delay: 5 * time.Millisecond},
		testNet{rate: 2e6, delay: 30 * time.Millisecond},
	)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 512 << 10
	eng.After(0, func() { conn.Send(total, 0) })
	eng.After(200*time.Millisecond, func() { conn.subflows[0].Close() })
	eng.RunUntil(60 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("transfer incomplete after subflow close")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d, want %d", chk.bytes, total)
	}
}

// TestCloseReinjectsOnlyWhatAnotherSubflowCarries pins how Close sorts
// its un-SACKed segments: one with a copy in flight on another live
// subflow becomes a reinjection candidate (RQ), one that the closing
// subflow alone carried returns to Q.
func TestCloseReinjectsOnlyWhatAnotherSubflowCarries(t *testing.T) {
	eng := netsim.NewEngine(1)
	path := func(name string) SubflowSpec {
		return SubflowSpec{Path: netsim.PathConfig{Name: name, Rate: netsim.ConstantRate(1e6), Delay: 10 * time.Millisecond}}
	}
	conn, err := Dial(eng, Config{}, path("a"), path("b"))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100 * time.Millisecond) // handshakes; no scheduler: Send only enqueues
	a, b := conn.subflows[0], conn.subflows[1]
	conn.Send(4*1460, 0)
	pkts := append([]*Packet(nil), conn.queues[inQ].all()...)
	for _, pkt := range pkts {
		a.transmit(pkt)
	}
	b.transmit(pkts[1])
	b.transmit(pkts[3])
	a.Close()
	for i, want := range []place{inQ, inRQ, inQ, inRQ} {
		if got := pkts[i].where; got != want {
			t.Errorf("seq %d is in queue %d after its subflow closed, want %d", pkts[i].Seq, got, want)
		}
	}
	if a.nOut != 0 || b.nOut != 2 {
		t.Errorf("in flight after the close: a %d, b %d; want 0 and 2", a.nOut, b.nOut)
	}
}

func TestRedundantSchedulerDuplicatesThinFlow(t *testing.T) {
	eng, conn := buildConn(t, 1, Config{}, "redundant",
		testNet{rate: 4e6, delay: 10 * time.Millisecond},
		testNet{rate: 4e6, delay: 30 * time.Millisecond},
	)
	// Send after both subflows finished their handshakes so the thin
	// flow actually has two paths to be redundant over.
	eng.At(100*time.Millisecond, func() { conn.Send(8*1460, 0) })
	eng.RunUntil(10 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("redundant transfer incomplete")
	}
	// Thin flow: every packet should have been sent on both subflows
	// (unless acked before the slow copy was scheduled).
	dups := conn.receiver.DuplicateSegments
	if dups == 0 {
		t.Errorf("full redundancy produced no duplicate arrivals")
	}
	// Full redundancy would be 16 transmissions; early cumulative
	// DATA_ACKs legitimately suppress some slow-path copies ("unless
	// the packet is already acknowledged and therefore removed from QU
	// before being sent on the slower subflow", §5.1).
	sentTotal := conn.subflows[0].PktsSent + conn.subflows[1].PktsSent
	if sentTotal <= 8 {
		t.Errorf("redundant scheduler sent only %d segments for 8 packets", sentTotal)
	}
}

func TestReceiverLegacyVsOptimized(t *testing.T) {
	// Loss on the fast subflow creates subflow-level gaps whose
	// segments would fit meta order; the optimized receiver must
	// deliver strictly no later than legacy, and the legacy counter
	// must observe held segments.
	run := func(mode ReceiverMode) (time.Duration, int64) {
		eng, conn := buildConn(t, 11, Config{ReceiverMode: mode}, "roundRobin",
			testNet{rate: 2e6, delay: 10 * time.Millisecond, loss: 0.03},
			testNet{rate: 2e6, delay: 12 * time.Millisecond, loss: 0.03},
		)
		chk := &deliveryChecker{t: t}
		chk.attach(conn)
		eng.After(0, func() { conn.Send(128<<10, 0) })
		eng.RunUntil(60 * time.Second)
		if !conn.AllAcked() {
			t.Fatalf("mode %v: incomplete", mode)
		}
		return chk.lastAt, conn.receiver.HeldByLegacy
	}
	optAt, _ := run(ReceiverOptimized)
	legAt, held := run(ReceiverLegacy)
	if held == 0 {
		t.Errorf("legacy receiver never held a meta-order-ready segment; scenario too clean")
	}
	if optAt > legAt {
		t.Errorf("optimized receiver finished later (%v) than legacy (%v)", optAt, legAt)
	}
}

func TestTSQAndQueuedProperties(t *testing.T) {
	// A slow path accumulates transmit backlog → TSQ_THROTTLED.
	eng := netsim.NewEngine(1)
	conn := NewConn(eng, Config{})
	link := netsim.NewLink(eng, netsim.PathConfig{
		Rate:  netsim.ConstantRate(1e5), // 100 KB/s: 1460 B ≈ 15 ms serialization
		Delay: 5 * time.Millisecond,
	})
	if _, err := conn.AddSubflow(SubflowConfig{Name: "slow", Link: link}); err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad("rr", schedlib.RoundRobin, core.BackendCompiled))
	eng.After(0, func() { conn.Send(64<<10, 0) })
	throttledSeen := false
	for at := 10 * time.Millisecond; at < 2*time.Second; at += 5 * time.Millisecond {
		eng.At(at, func() {
			if conn.subflows[0].tsqThrottled() {
				throttledSeen = true
			}
		})
	}
	eng.RunUntil(2 * time.Second)
	if !throttledSeen {
		t.Errorf("slow path never hit the TSQ condition")
	}
}

func TestThroughputEstimate(t *testing.T) {
	eng, conn := buildConn(t, 1, Config{}, "minRTT",
		testNet{rate: 2e6, delay: 5 * time.Millisecond},
	)
	eng.After(0, func() { conn.Send(4<<20, 0) })
	var est int64
	eng.At(2*time.Second, func() { est = conn.subflows[0].Throughput() })
	eng.RunUntil(2100 * time.Millisecond)
	// Saturated 2 MB/s path: estimate within a factor of two.
	if est < 1e6 || est > 3e6 {
		t.Errorf("throughput estimate %d B/s, want ≈ 2e6", est)
	}
}

func TestSchedulerRegisterAPIRetriggers(t *testing.T) {
	// With the TAP scheduler and target 0, nothing moves on the backup
	// path when preferred is exhausted; raising the target via
	// SetRegister must unblock scheduling without new data arriving.
	eng := netsim.NewEngine(1)
	conn := NewConn(eng, Config{})
	fast := netsim.NewLink(eng, netsim.PathConfig{Rate: netsim.ConstantRate(5e5), Delay: 5 * time.Millisecond})
	slow := netsim.NewLink(eng, netsim.PathConfig{Rate: netsim.ConstantRate(5e6), Delay: 30 * time.Millisecond})
	if _, err := conn.AddSubflow(SubflowConfig{Name: "wifi", Link: fast}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.AddSubflow(SubflowConfig{Name: "lte", Link: slow, Backup: true}); err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad("tap", schedlib.TAP, core.BackendCompiled))
	conn.SetRegister(schedlib.RegTarget, 1) // ≈ no target: stay on WiFi
	eng.After(0, func() { conn.Send(4<<20, 0) })
	var lteBefore int64
	eng.At(time.Second, func() {
		lteBefore = conn.subflows[1].BytesSent
		conn.SetRegister(schedlib.RegTarget, 4<<20) // now require 4 MB/s
	})
	eng.RunUntil(5 * time.Second)
	if lteBefore != 0 {
		t.Fatalf("TAP used LTE despite trivial target (sent %d bytes)", lteBefore)
	}
	if conn.subflows[1].BytesSent == 0 {
		t.Errorf("raising the target via SetRegister did not engage LTE")
	}
}

func TestExactlyOnceDeliveryInvariant(t *testing.T) {
	// Heavy loss + redundancy: the application must still see every
	// byte exactly once, in order.
	eng, conn := buildConn(t, 21, Config{}, "opportunisticRedundant",
		testNet{rate: 1e6, delay: 10 * time.Millisecond, loss: 0.1},
		testNet{rate: 1e6, delay: 25 * time.Millisecond, loss: 0.1},
	)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 100 << 10
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(120 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("incomplete under 10%% loss")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d bytes, want exactly %d", chk.bytes, total)
	}
}

func TestBurstyAppLimitedFlow(t *testing.T) {
	// Request/response pattern: send 8 KiB every 200 ms; all bursts
	// must complete and Q must drain between bursts.
	eng, conn := buildConn(t, 6, Config{}, "minRTT",
		testNet{rate: 2e6, delay: 10 * time.Millisecond},
		testNet{rate: 2e6, delay: 40 * time.Millisecond},
	)
	for i := 0; i < 10; i++ {
		eng.At(time.Duration(i)*200*time.Millisecond, func() { conn.Send(8<<10, 0) })
	}
	eng.RunUntil(10 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("bursty flow incomplete")
	}
	if got := conn.receiver.DeliveredBytes; got != 80<<10 {
		t.Errorf("delivered %d, want %d", got, 80<<10)
	}
}

func TestOLIAEndToEnd(t *testing.T) {
	eng, conn := buildConn(t, 15, Config{CC: OLIA{}}, "minRTT",
		testNet{rate: 2e6, delay: 10 * time.Millisecond, loss: 0.01},
		testNet{rate: 2e6, delay: 25 * time.Millisecond, loss: 0.01},
	)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 512 << 10
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(60 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("OLIA transfer incomplete")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d, want %d", chk.bytes, total)
	}
}

func TestSchedulerSwitchMidConnection(t *testing.T) {
	// §3.2 disadvises runtime scheduler switching but the runtime must
	// survive it without losing data (register conventions may clash,
	// correctness may not).
	eng, conn := buildConn(t, 8, Config{}, "minRTT",
		testNet{rate: 2e6, delay: 5 * time.Millisecond, loss: 0.01},
		testNet{rate: 2e6, delay: 20 * time.Millisecond, loss: 0.01},
	)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 512 << 10
	eng.After(0, func() { conn.Send(total, 0) })
	eng.At(300*time.Millisecond, func() {
		conn.SetScheduler(core.MustLoad("redundant", schedlib.Redundant, core.BackendVM))
	})
	eng.At(600*time.Millisecond, func() {
		conn.SetScheduler(core.MustLoad("rr", schedlib.RoundRobin, core.BackendInterpreter))
	})
	eng.RunUntil(120 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("transfer incomplete after scheduler switches")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d, want exactly %d", chk.bytes, total)
	}
}

func TestEightSubflowTransfer(t *testing.T) {
	// Many-subflow scaling ("the demand ... increases with the
	// availability of more subflows, e.g., for connections between
	// data-centers"): 8 heterogeneous paths, bulk transfer, exact
	// delivery, and every usable path carries data.
	paths := make([]testNet, 8)
	for i := range paths {
		paths[i] = testNet{
			rate:  float64(1+i%3) * 1e6,
			delay: time.Duration(3+2*i) * time.Millisecond,
			loss:  0.005,
		}
	}
	eng, conn := buildConn(t, 12, Config{}, "redundantIfNoQ", paths...)
	chk := &deliveryChecker{t: t}
	chk.attach(conn)
	const total = 4 << 20
	eng.After(0, func() { conn.Send(total, 0) })
	eng.RunUntil(120 * time.Second)
	if !conn.AllAcked() {
		t.Fatalf("8-subflow transfer incomplete")
	}
	if chk.bytes != total {
		t.Errorf("delivered %d, want %d", chk.bytes, total)
	}
	used := 0
	for _, s := range conn.subflows {
		if s.BytesSent > 0 {
			used++
		}
	}
	if used < 6 {
		t.Errorf("only %d of 8 subflows carried data", used)
	}
}
