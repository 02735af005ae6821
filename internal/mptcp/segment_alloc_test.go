package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// checkRetxQueue asserts what release guarantees about a subflow's
// paced-retransmission queue: every queued record is outstanding,
// marked lost, and queued once.
func checkRetxQueue(t *testing.T, s *Subflow) {
	t.Helper()
	for i, rec := range s.retxPending {
		for _, earlier := range s.retxPending[:i] {
			if earlier == rec {
				t.Fatalf("subflow %d: record sbfSeq %d queued twice for retransmission", s.id, rec.sbfSeq)
			}
		}
		outstanding := false
		for _, o := range s.outstanding {
			outstanding = outstanding || o == rec
		}
		if !outstanding || !rec.lost {
			t.Fatalf("subflow %d: retxPending holds record sbfSeq %d (outstanding=%v lost=%v)",
				s.id, rec.sbfSeq, outstanding, rec.lost)
		}
	}
}

// TestRecycledRecordLeavesRetxQueue is the hazard of recycling
// txRecords: a record queued for its paced retransmission and then
// SACKed goes back to the free list, and the next transmission reuses
// the same memory. If the stale pointer were still queued, drainRetx
// would take the new segment for the lost one and retransmit it.
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
	checkRetxQueue(t, s)
	if got := len(s.retxPending); got != 3 {
		t.Fatalf("retxPending holds %d records after the first SACK, want 3", got)
	}
	queued := s.retxPending[1] // sbfSeq 3
	if queued.sbfSeq != 3 {
		t.Fatalf("second queued record has sbfSeq %d, want 3", queued.sbfSeq)
	}
	// Its original transmission arrives after all: SACKed while queued.
	s.handleAck(3, 0, conn.rwnd)
	checkRetxQueue(t, s)
	for _, rec := range s.retxPending {
		if rec == queued {
			t.Fatal("a SACKed record is still queued for retransmission")
		}
	}
	retxBefore := s.Retransmissions
	if !s.transmit(pkts[8]) {
		t.Fatal("transmit of the ninth segment refused")
	}
	fresh := s.outstanding[len(s.outstanding)-1]
	if fresh != queued {
		t.Fatalf("the SACKed record was not reused; the test needs it to be")
	}
	// Drain whatever is still legitimately queued (sbfSeq 4).
	s.handleAck(6, 0, conn.rwnd)
	s.handleAck(5, 0, conn.rwnd)
	checkRetxQueue(t, s)
	if fresh.sbfRetx || fresh.lost {
		t.Fatalf("the reused record (sbfSeq %d) was retransmitted as if it were the lost one", fresh.sbfSeq)
	}
	if got := s.Retransmissions - retxBefore; got != 1 {
		t.Fatalf("%d retransmissions after the reuse, want 1 (sbfSeq 4 only)", got)
	}
}

// segmentPathConn is a two-path connection under minRTT on the VM,
// established and warmed up by one bulk write.
func segmentPathConn(t *testing.T, loss float64) (*netsim.Engine, *Conn) {
	t.Helper()
	eng := netsim.NewEngine(5)
	conn, err := Dial(eng, Config{},
		SubflowSpec{Path: goldenPath("a", 3e6, 5*time.Millisecond, loss)},
		SubflowSpec{Path: goldenPath("b", 8e6, 20*time.Millisecond, loss)},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendVM)
	s.SetSynchronousSpecialization(true)
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
// back, SACK processing, RTO re-arm — at the one object a segment is
// allowed to cost: its Packet. Growth of long-lived containers (the
// packet index, queue slices, free lists) is amortized and falls below
// AllocsPerRun's integer average.
func TestSegmentPathAllocs(t *testing.T) {
	const mss = 1460
	t.Run("clean", func(t *testing.T) {
		eng, conn := segmentPathConn(t, 0)
		sendAndDrain(t, eng, conn, 512*mss)
		for i := 0; i < 64; i++ {
			sendAndDrain(t, eng, conn, mss)
		}
		n := testing.AllocsPerRun(500, func() { sendAndDrain(t, eng, conn, mss) })
		if n > 1 {
			t.Fatalf("one segment, sent and acknowledged, allocates %.0f objects; want at most 1 (the Packet)", n)
		}
	})
	// With loss the same path also runs loss detection, fast and paced
	// retransmission, RTO firing and meta-level reinjection.
	t.Run("lossy", func(t *testing.T) {
		const burst = 24
		eng, conn := segmentPathConn(t, 0.01)
		for i := 0; i < 200; i++ {
			sendAndDrain(t, eng, conn, burst*mss)
		}
		n := testing.AllocsPerRun(500, func() {
			sendAndDrain(t, eng, conn, burst*mss)
			for _, s := range conn.subflows {
				checkRetxQueue(t, s)
			}
		})
		if n > burst {
			t.Fatalf("%d segments with 1%% loss allocate %.0f objects; want at most %d (their Packets)", burst, n, burst)
		}
		var retx, rtos, episodes int64
		for _, s := range conn.subflows {
			retx += s.Retransmissions
			rtos += s.RTOs
			episodes += s.LossEpisodes
		}
		if retx == 0 || rtos == 0 || episodes == 0 {
			t.Fatalf("the lossy case did not exercise recovery: %d retransmissions, %d RTOs, %d episodes", retx, rtos, episodes)
		}
		t.Logf("%d retransmissions, %d RTOs, %d loss episodes", retx, rtos, episodes)
	})
}
