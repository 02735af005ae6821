package mptcp

import (
	"slices"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
	"progmp/internal/xstate"
)

// checkSendWindow asserts the invariants of a subflow's send window:
// nOut and nLost count its live and its live-and-lost slots, the front
// slot is live unless the window is empty, and only live, lost segments
// are queued for their paced retransmission.
func checkSendWindow(t *testing.T, s *Subflow) {
	t.Helper()
	live, lost := 0, 0
	for seq := s.sent.base; seq < s.sent.end(); seq++ {
		rec := s.sent.at(seq)
		if rec.live() {
			live++
			if rec.lost {
				lost++
			}
		}
		if rec.queued && (!rec.live() || !rec.lost) {
			t.Fatalf("subflow %d: sbfSeq %d queued for retransmission (live=%v lost=%v)", s.id, seq, rec.live(), rec.lost)
		}
	}
	if live != s.nOut || lost != s.nLost {
		t.Fatalf("subflow %d: window holds %d live / %d lost segments, counters say %d / %d", s.id, live, lost, s.nOut, s.nLost)
	}
	if s.sent.len() > 0 && !s.sent.at(s.sent.base).live() {
		t.Fatalf("subflow %d: window [%d,%d) starts at a SACKed slot", s.id, s.sent.base, s.sent.end())
	}
}

// queuedRetx lists the sbfSeqs queued for a paced retransmission.
func queuedRetx(s *Subflow) []int64 {
	var seqs []int64
	for seq := s.sent.base; seq < s.sent.end(); seq++ {
		if s.sent.at(seq).queued {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// TestRecycledRecordLeavesRetxQueue: a segment queued for its paced
// retransmission and then SACKed must leave the queue — it is never
// retransmitted, and the next transmission is not taken for it.
func TestRecycledRecordLeavesRetxQueue(t *testing.T) {
	eng := netsim.NewEngine(1)
	conn, err := Dial(eng, Config{}, SubflowSpec{Path: netsim.PathConfig{
		Name: "p", Rate: netsim.ConstantRate(1e6), Delay: 10 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100 * time.Millisecond) // handshake; no scheduler: Send only enqueues
	s := conn.subflows[0]
	conn.Send(9*1460, 0)
	pkts := append([]*Packet(nil), conn.queues[inQ].all()...)
	for _, pkt := range pkts[:8] {
		if !s.transmit(pkt) {
			t.Fatalf("transmit of seq %d refused", pkt.Seq)
		}
	}
	// A SACK far ahead marks sbfSeq 0..4 lost at once: 0 goes out as the
	// fast retransmit, 1 as this ACK's paced one, 2..4 stay queued.
	s.handleAck(7, 0, conn.rwnd)
	checkSendWindow(t, s)
	if got := queuedRetx(s); !slices.Equal(got, []int64{2, 3, 4}) {
		t.Fatalf("sbfSeqs %v queued after the first SACK, want [2 3 4]", got)
	}
	// The original transmission of sbfSeq 3 arrives after all: SACKed
	// while queued. This ACK's paced retransmission is sbfSeq 2.
	s.handleAck(3, 0, conn.rwnd)
	checkSendWindow(t, s)
	if got := queuedRetx(s); !slices.Equal(got, []int64{4}) {
		t.Fatalf("sbfSeqs %v queued after sbfSeq 3 was SACKed, want [4]", got)
	}
	retxBefore := s.Retransmissions
	fresh := s.sent.end()
	if !s.transmit(pkts[8]) {
		t.Fatal("transmit of the ninth segment refused")
	}
	// Drain whatever is still legitimately queued (sbfSeq 4).
	s.handleAck(6, 0, conn.rwnd)
	s.handleAck(5, 0, conn.rwnd)
	checkSendWindow(t, s)
	if rec := s.sent.at(fresh); rec.metaSeq != pkts[8].Seq || rec.sbfRetx || rec.lost {
		t.Fatalf("the ninth segment (sbfSeq %d) was retransmitted as if it were the SACKed one", fresh)
	}
	if got := s.Retransmissions - retxBefore; got != 1 {
		t.Fatalf("%d retransmissions after the SACK, want 1 (sbfSeq 4 only)", got)
	}
}

// segmentPathConn is a two-path connection under minRTT on the VM,
// established.
func segmentPathConn(t *testing.T, cfg Config, loss float64) (*netsim.Engine, *Conn) {
	t.Helper()
	eng := netsim.NewEngine(5)
	conn, err := Dial(eng, cfg,
		SubflowSpec{Path: goldenPath("a", 3e6, 5*time.Millisecond, loss)},
		SubflowSpec{Path: goldenPath("b", 8e6, 20*time.Millisecond, loss)},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM)
	conn.SetScheduler(s)
	eng.RunUntil(100 * time.Millisecond)
	return eng, conn
}

// sendAndDrain writes n bytes and runs the engine until they are
// acknowledged.
func sendAndDrain(t *testing.T, eng *netsim.Engine, conn *Conn, n int) {
	conn.Send(n, 0)
	for !conn.AllAcked() {
		if !eng.Step() {
			t.Fatal("engine drained before the final ACK")
		}
	}
}

// TestSegmentPathAllocs pins the per-segment path — transmit, the
// path's serialization and arrival events, the receiver, the ACK's way
// back, SACK processing, RTO re-arm — at the pages of the send window:
// a segment costs no object of its own, and a write into a drained
// window costs the pages it spans. Growth of long-lived containers
// (the page ring, queue slices, free lists) is amortized and falls
// below AllocsPerRun's integer average.
func TestSegmentPathAllocs(t *testing.T) {
	const mss = 1460
	t.Run("clean", func(t *testing.T) {
		eng, conn := segmentPathConn(t, Config{}, 0)
		sendAndDrain(t, eng, conn, 512*mss)
		for i := 0; i < 64; i++ {
			sendAndDrain(t, eng, conn, mss)
		}
		n := testing.AllocsPerRun(500, func() { sendAndDrain(t, eng, conn, mss) })
		if n > 1 {
			t.Fatalf("one segment, sent and acknowledged, allocates %.0f objects; want at most 1 (the page that holds its Packet)", n)
		}
	})
	// With loss the same path also runs loss detection, fast and paced
	// retransmission, RTO firing and meta-level reinjection; under OLIA
	// congestion avoidance also runs its coupled increase on every ACK.
	// A burst of 24 segments spans at most three pages of 16.
	lossy := func(cc CongestionControl) func(*testing.T) {
		return func(t *testing.T) {
			const burst, pages = 24, 3
			eng, conn := segmentPathConn(t, counted(Config{CC: cc}), 0.01)
			for i := 0; i < 200; i++ {
				sendAndDrain(t, eng, conn, burst*mss)
			}
			n := testing.AllocsPerRun(500, func() {
				sendAndDrain(t, eng, conn, burst*mss)
				for _, s := range conn.subflows {
					checkSendWindow(t, s)
				}
			})
			if n > pages {
				t.Fatalf("%d segments with 1%% loss allocate %.0f objects; want at most %d (the pages of their Packets)", burst, n, pages)
			}
			var retx, rtos, episodes int64
			for _, s := range conn.subflows {
				retx += s.Retransmissions
				rtos += countsOf(conn).RTOs(s)
				episodes += countsOf(conn).LossEpisodes(s)
			}
			if retx == 0 || rtos == 0 || episodes == 0 {
				t.Fatalf("the lossy case did not exercise recovery: %d retransmissions, %d RTOs, %d episodes", retx, rtos, episodes)
			}
			t.Logf("%d retransmissions, %d RTOs, %d loss episodes", retx, rtos, episodes)
		}
	}
	t.Run("lossy", lossy(nil))
	t.Run("olia", lossy(OLIA{}))
	// A store-attached connection also feeds the shared store on every
	// ACK, loss and RTO. The writes land in place, so its segments cost
	// no more than a store-less connection's, clean and lossy alike.
	t.Run("store", func(t *testing.T) {
		perBurst := func(cfg Config, loss float64, burst int) float64 {
			eng, conn := segmentPathConn(t, cfg, loss)
			for i := 0; i < 200; i++ {
				sendAndDrain(t, eng, conn, burst*mss)
			}
			return testing.AllocsPerRun(500, func() { sendAndDrain(t, eng, conn, burst*mss) })
		}
		for _, c := range []struct {
			loss  float64
			burst int
		}{{0, 1}, {0.01, 24}} {
			st := xstate.NewStore()
			without, with := perBurst(Config{}, c.loss, c.burst), perBurst(Config{Store: st}, c.loss, c.burst)
			if with > without {
				t.Errorf("%d segments at %.0f%% loss allocate %.0f objects with a store, %.0f without", c.burst, 100*c.loss, with, without)
			}
			if st.Epoch() == 0 {
				t.Errorf("%.0f%% loss: the store-attached connection wrote nothing to its store", 100*c.loss)
			}
		}
	})
}
