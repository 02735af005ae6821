package mptcp

import (
	"testing"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/runtime"
)

// recycledPageRig builds the case a send-window page recycles under: a
// segment (seq 5) still in flight on subflow b is acknowledged through
// subflow a, the cumulative ACK passes its page, and later writes
// refill that page, so seq 37, a 100-byte tail, now occupies the memory
// seq 5 had. b's copies of seq 3 and seq 5 (sbfSeq 0 and 1) were lost
// in a blackout of b's path that is over by the time the rig returns,
// and sbfSeq 0 is SACKed without ever reaching the receiver: the
// legacy receiver keeps whatever arrives on b above that gap, with the
// meta sequence number and size the wire carried.
func recycledPageRig(t *testing.T) (eng *netsim.Engine, c *Conn, a, b *Subflow) {
	t.Helper()
	eng = netsim.NewEngine(1)
	c, err := Dial(eng, counted(Config{ReceiverMode: ReceiverLegacy}),
		SubflowSpec{Path: goldenPath("a", 10e6, 10*time.Millisecond, 0)},
		SubflowSpec{Path: netsim.PathConfig{
			Name: "b", Rate: netsim.ConstantRate(10e6), Delay: 10 * time.Millisecond,
			Loss: netsim.BlackoutLoss{From: 100 * time.Millisecond, Until: 150 * time.Millisecond},
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100 * time.Millisecond) // handshakes; no scheduler: Send only enqueues
	a, b = c.subflows[0], c.subflows[1]
	c.Send(17*mss, 0)
	for seq := int64(0); seq < 16; seq++ {
		a.transmit(c.win.at(seq))
	}
	old := c.win.at(5)
	b.transmit(c.win.at(3))
	b.transmit(old)
	b.handleAck(0, 0, c.rwnd)
	eng.RunUntil(140 * time.Millisecond) // a's ACKs retire seqs 0..15; seq 16 keeps the window open
	if c.win.base != 16 || c.win.at(5) != nil {
		t.Fatalf("rig: the window starts at %d after a's ACKs, want 16", c.win.base)
	}
	c.Send(20*mss+100, 0) // seqs 17..37; seq 32 opens a page
	if c.win.at(37) != old {
		t.Fatal("rig: the page that held seq 5 was not recycled for seqs 32..47")
	}
	if rec := b.sent.at(1); !rec.live() || rec.metaSeq != 5 || b.nOut != 1 {
		t.Fatalf("rig: b's sbfSeq 1 is %+v with %d in flight, want seq 5 alone", rec, b.nOut)
	}
	eng.RunUntil(160 * time.Millisecond) // b's blackout is over
	return eng, c, a, b
}

// TestRecordOutlivesRecycledPage: a subflow's record of a segment the
// cumulative ACK has retired names that segment, not the memory the
// send window has since reused for another. Its retransmissions put
// the original sequence number and size on the wire, and tearing the
// subflow down touches no packet of the refilled page.
func TestRecordOutlivesRecycledPage(t *testing.T) {
	// wantOnWire checks what the receiver kept of b's sbfSeq 1, which
	// only a retransmission can have brought.
	wantOnWire := func(t *testing.T, c *Conn, b *Subflow) {
		t.Helper()
		if got := c.receiver.perSbf[b.id].at(1); !got.received || got.metaSeq != 5 || got.size != mss {
			t.Errorf("b's sbfSeq 1 reached the receiver as %+v, want seq 5 of %d bytes", got, mss)
		}
	}
	// untouched checks that nothing moved seq 5's successor in the page.
	untouched := func(t *testing.T, c *Conn, what, before string) {
		t.Helper()
		if got := queueSeqs(c); got != before {
			t.Errorf("%s: %s, want %s", what, got, before)
		}
		if c.pktOf(runtime.PacketHandle(5+1)) != nil {
			t.Errorf("%s: the handle of seq 5 resolves to a packet", what)
		}
		checkQueueInvariants(t, c, 0)
	}

	t.Run("rto", func(t *testing.T) {
		eng, c, _, b := recycledPageRig(t)
		before := queueSeqs(c)
		eng.RunUntil(400 * time.Millisecond)
		if rtos := countsOf(c).RTOs(b); rtos != 1 || b.Retransmissions != 1 {
			t.Fatalf("b: %d RTOs, %d retransmissions; want the one RTO's", rtos, b.Retransmissions)
		}
		wantOnWire(t, c, b)
		untouched(t, c, "after b's RTO", before)
	})
	t.Run("fast retransmit", func(t *testing.T) {
		eng, c, _, b := recycledPageRig(t)
		before := queueSeqs(c)
		for seq := int64(16); seq < 19; seq++ { // sbfSeq 2..4: their SACKs overtake sbfSeq 1
			b.transmit(c.win.at(seq))
		}
		eng.RunUntil(250 * time.Millisecond)
		cc := countsOf(c)
		if rtos, episodes := cc.RTOs(b), cc.LossEpisodes(b); rtos != 0 || b.Retransmissions != 1 || episodes != 1 {
			t.Fatalf("b: %d RTOs, %d retransmissions, %d loss episodes; want one fast retransmit", rtos, b.Retransmissions, episodes)
		}
		wantOnWire(t, c, b)
		untouched(t, c, "after b's fast retransmit", before)
	})
	t.Run("close", func(t *testing.T) {
		_, c, a, b := recycledPageRig(t)
		for seq := int64(32); seq < 38; seq++ { // the refilled page, in flight on a
			p := c.win.at(seq)
			a.transmit(p)
			c.move(p, inQU, false)
		}
		before := queueSeqs(c)
		b.Close()
		untouched(t, c, "after b closed", before)
	})
}

// FuzzSendWindow drives a send window through pushes, pops and drains
// against a map model. A pushed packet is zeroed but for its Seq; the
// window answers nil for every sequence number it has retired or not
// yet written and the model's packet for every other; it holds the
// pages its live packets span plus at most one spare, and nothing at
// all once drained.
func FuzzSendWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 0, 0, 3})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x00\x00\x00"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var w sendWindow
		model := make(map[int64]Packet)
		var base, end int64
		for i, op := range ops {
			// Checked below: what this op retired, what stays live, and
			// two pages past the end. A number retired earlier was
			// checked in its op and can only stay retired.
			from := base
			switch op % 4 {
			case 0, 3: // write a packet, then dirty every field a later use would rely on being zeroed
				p := w.push()
				if *p != (Packet{Seq: end}) {
					t.Fatalf("op %d: pushed seq %d as %+v, want it zeroed", i, end, *p)
				}
				*p = Packet{
					Seq: end, Size: int(op) + 1, Offset: end * 7, Prop: int64(i), EnqueuedAt: time.Duration(i),
					SentOnMask: uint64(op) | 1, SentCount: int(op>>2) + 1, LastSentAt: time.Duration(op),
					where: inQU, left: inRQ, leftPass: uint32(i) + 1,
				}
				model[end] = *p
				end++
			case 1: // retire the oldest packet
				if base < end {
					delete(model, base)
					w.pop()
					base++
				}
			case 2: // drain
				for base < end {
					delete(model, base)
					w.pop()
					base++
				}
			}
			if w.base != base || w.end != end {
				t.Fatalf("op %d: window [%d,%d), model [%d,%d)", i, w.base, w.end, base, end)
			}
			for seq := from; seq < end+2*pageSize; seq++ {
				p := w.at(seq)
				want, live := model[seq]
				switch {
				case !live && p != nil:
					t.Fatalf("op %d: seq %d outside [%d,%d) resolves to %+v", i, seq, base, end, *p)
				case live && (p == nil || *p != want):
					t.Fatalf("op %d: seq %d resolves to %v, want %+v", i, seq, p, want)
				}
			}
			livePages := 0
			if base < end {
				livePages = int((end-1)>>pageShift - base>>pageShift + 1)
			}
			held := w.pages.len()
			if w.spare != nil {
				held++
			}
			if w.pages.len() != livePages || held > livePages+1 || base == end && held != 0 {
				t.Fatalf("op %d: window [%d,%d) holds %d pages and spare %v, its packets span %d", i, base, end, w.pages.len(), w.spare != nil, livePages)
			}
		}
	})
}
