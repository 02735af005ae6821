package mptcp

import (
	"math/bits"

	"progmp/internal/runtime"
)

// Sent cursors let a scan whose filter is !p.SENT_ON(s) start where
// subflow s's run of sent packets ends instead of at the head of QU
// (runtime.Queue.SkipSent). Redundant-style schedulers ask this once per
// subflow per execution; a walk from the head made each ask cost
// O(|QU|).
//
// The invariant, for every subflow s whose bit Conn.sentAsked holds:
// every QU packet with Seq < s.sentCursor has s's bit of SentOnMask set.
// QU is ordered by Seq, so a lookup bisects to the cursor, walks the
// packets from there while they carry the bit, and stores where it
// stopped. Bits are only ever set and a removal only takes packets
// away, so what can break the invariant is an insert below a cursor of
// a packet that lacks the bit: Conn.move lowers the cursor to it. A
// cursor nobody asked about stays 0, which holds trivially (sequence
// numbers start at 0); a connection whose program never asks pays one
// test per insert. Q and RQ bind their lists, which are no
// runtime.SentSource: no corpus program filters them this way, and RQ
// is in loss order, not Seq order, so their scans start at the head.

// unackedSource is the runtime.QueueSource QU binds to: QU's list, with
// the subflows' sent cursors behind SentPrefix.
type unackedSource Conn

// MaterializePacket fills v from QU.
//
//progmp:hotpath
//progmp:deterministic
func (u *unackedSource) MaterializePacket(i int, v *runtime.PacketView) {
	u.queues[inQU].MaterializePacket(i, v)
}

// SentPrefix returns how many leading QU packets were sent on subflow
// id, starting from the subflow's cursor and leaving it where the run
// ends.
//
//progmp:hotpath
//progmp:deterministic
func (u *unackedSource) SentPrefix(id int) int {
	c := (*Conn)(u)
	if id >= len(c.subflows) { // no view carries such an ID: skip nothing
		return 0
	}
	s, bit := c.subflows[id], uint64(1)<<uint(id)
	c.sentAsked |= bit
	l := &c.queues[inQU]
	live := l.all()
	i := l.search(s.sentCursor - 1)
	for i < len(live) && live[i].SentOnMask&bit != 0 {
		i++
	}
	switch {
	case i < len(live):
		s.sentCursor = live[i].Seq
	case i > 0:
		s.sentCursor = max(s.sentCursor, live[i-1].Seq+1)
	}
	return i
}

// lowerSentCursors keeps the invariant as p enters QU: a cursor above
// p's Seq whose subflow p was not sent on drops to p.
func (c *Conn) lowerSentCursors(p *Packet) {
	for m := c.sentAsked &^ p.SentOnMask; m != 0; m &= m - 1 {
		if s := c.subflows[bits.TrailingZeros64(m)]; s.sentCursor > p.Seq {
			s.sentCursor = p.Seq
		}
	}
}
