package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// TestSenderRetainsOnlyTheWindow streams 30 600 segments at 2.5 MB/s
// over the golden two paths (1 % loss on one of them) and runs to the
// final ACK and past the last subflow-level retransmission. Every
// per-sequence store must then be empty, and must never have grown
// beyond a small multiple of the peak of queued-plus-in-flight
// segments: what the connection retains is its window, not its history.
func TestSenderRetainsOnlyTheWindow(t *testing.T) {
	eng := netsim.NewEngine(7)
	conn, err := Dial(eng, Config{}, twoPaths(eng)...)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(core.MustLoad("minRTT", schedlib.All["minRTT"], core.BackendCompiled))
	chk := NewConservationChecker(conn)
	const chunk, chunks, period = 25000, 1700, 10 * time.Millisecond
	for i := 0; i < chunks; i++ {
		eng.At(time.Duration(i)*period, func() { conn.Send(chunk, 0) })
	}
	peak := 0
	for !conn.AllAcked() || chk.Bytes < chunk*chunks {
		if !eng.Step() || eng.Now() > time.Minute {
			t.Fatalf("transfer incomplete at %v: %d of %d bytes delivered", eng.Now(), chk.Bytes, chunk*chunks)
		}
		peak = max(peak, conn.win.len())
	}
	eng.RunUntil(eng.Now() + 10*time.Second)
	if err := chk.Check(chunk * chunks); err != nil {
		t.Fatal(err)
	}
	checkQueueInvariants(t, conn, 0)
	segments := int(conn.win.end)
	if segments < 30000 || peak < 18 || peak > segments/30 {
		t.Fatalf("%d segments with a peak window of %d: not the long, shallow stream this test needs", segments, peak)
	}

	rx := conn.receiver
	if conn.win.len() != 0 {
		t.Errorf("sender window is [%d,%d) after the final ACK of %d segments", conn.win.base, conn.win.end, segments)
	}
	// A drained window lets go of its packet memory.
	if n := conn.win.pages.len(); n != 0 || conn.win.spare != nil {
		t.Errorf("the drained sender window holds %d pages, spare %v", n, conn.win.spare != nil)
	}
	if q, qu, rq := conn.queues[inQ].len(), conn.queues[inQU].len(), conn.queues[inRQ].len(); q+qu+rq != 0 {
		t.Errorf("Q/QU/RQ hold %d/%d/%d packets after the final ACK", q, qu, rq)
	}
	if rx.ooo.len() != 0 || rx.ooo.base != conn.win.end || rx.oooSegs != 0 || rx.oooBytes != 0 || rx.heldBytes != 0 {
		t.Errorf("meta reorder window is [%d,+%d) holding %d segments, %d+%d bytes", rx.ooo.base, rx.ooo.len(), rx.oooSegs, rx.oooBytes, rx.heldBytes)
	}
	// A vacated list slot is cleared, so a drained list keeps no
	// acknowledged packet reachable through its backing array.
	for name, l := range map[string]*packetList{"Q": &conn.queues[inQ], "QU": &conn.queues[inQU], "RQ": &conn.queues[inRQ]} {
		if i, p := straySlot(l); p != nil {
			t.Errorf("%s slot %d of %d still points at seq %d after the final ACK", name, i, cap(l.pkts), p.Seq)
		}
	}
	limit := 4 * peak
	caps := map[string]int{
		"sender window":       len(conn.win.pages.buf) * pageSize, // page slots, in packets
		"Q":                   cap(conn.queues[inQ].pkts),
		"QU":                  cap(conn.queues[inQU].pkts),
		"RQ":                  cap(conn.queues[inRQ].pkts),
		"meta reorder window": len(rx.ooo.buf),
	}
	for i := range rx.perSbf {
		win, s := &rx.perSbf[i], conn.subflows[i]
		if win.len() != 0 || win.base != s.sent.end() {
			t.Errorf("subflow %s receive window is [%d,+%d) after %d transmissions", s.name, win.base, win.len(), s.sent.end())
		}
		if s.sent.len() != 0 {
			t.Errorf("subflow %s send window holds [%d,%d) after the final ACK", s.name, s.sent.base, s.sent.end())
		}
		caps["receive window of "+s.name] = len(win.buf)
		caps["send window of "+s.name] = len(s.sent.buf)
	}
	for name, c := range caps {
		if c > limit {
			t.Errorf("%s grew to %d slots; the peak window was %d of %d segments sent", name, c, peak, segments)
		}
	}
}
