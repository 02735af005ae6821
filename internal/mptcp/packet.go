// Package mptcp is a userspace model of the Multipath TCP sender and
// receiver sufficient to host ProgMP schedulers: the meta socket with
// the queues Q/QU/RQ of §3.1, subflows with Reno/LIA congestion
// control, RFC 6298 RTT estimation, SACK-style loss detection, RTO
// handling with mandatory subflow-level retransmission, TSQ throttling,
// and the two-level receiver queue architecture of §4.2 in both its
// legacy and optimized ("fastest possible packet handling") variants.
//
// It substitutes for the paper's in-kernel runtime (see DESIGN.md);
// the scheduler decision surface — subflow and packet properties,
// queue contents, triggering events — matches the programming model.
package mptcp

import (
	"time"

	"progmp/internal/runtime"
)

// Packet is one meta-level segment. Segments carry a data sequence
// number at packet granularity; the size is the payload in bytes. A
// Packet lives in its connection's send window (sendWindow) from the
// write until the cumulative ACK retires it, and its memory is then
// reused for a later segment.
type Packet struct {
	Seq  int64
	Size int
	// Offset is the packet's first byte's position in the stream;
	// receive-window accounting works in sequence space, so
	// retransmissions of old data never consume new window.
	Offset     int64
	Prop       int64 // application-set scheduling intent (§3.2)
	EnqueuedAt time.Duration

	// SentOnMask has bit i set after a transmission on subflow id i.
	SentOnMask uint64
	SentCount  int
	// LastSentAt is the time of the most recent transmission.
	LastSentAt time.Duration

	// where is the queue holding the packet.
	where place
	// left is where the packet was when execution leftPass (the
	// truncated Conn.SchedulerExecutions) began, if it moved since. A
	// stamp repeats after 2^32 executions: a packet would have to sit
	// in the window unmoved that long to be misjudged.
	left     place
	leftPass uint32
}

// placeAt returns where p was when execution pass began: applyActions
// judges an action by it, though an earlier action may have moved p.
func (p *Packet) placeAt(pass uint32) place {
	if p.leftPass == pass {
		return p.left
	}
	return p.where
}

// place names the one queue a packet is in. The queues are pairwise
// disjoint views over one sequence space (§3.1), so membership is a
// field on the packet; Conn.move is its only writer.
type place uint8

const (
	nowhere place = iota // acked, or dropped from Q after a transmission
	inQ
	inQU
	inRQ
)

// placeOf is the place of a scheduler-visible queue.
func placeOf(id runtime.QueueID) place { return place(id) + 1 }

// packetList is the ordered content of one of Q, QU and RQ: a deque
// over a slice whose live content is pkts[head:]. Every slot outside
// it is nil, so a drained list keeps no packet reachable. Positions the
// scheduler sees index the live content, so head never shows.
// Membership lives in Packet.where: callers add a packet that is in no
// list and remove one that is in this list.
//
// The list is also the runtime.QueueSource its queue binds to:
// Conn.buildEnv stamps now, and the list does not change until the
// execution's actions are applied.
type packetList struct {
	pkts []*Packet
	head int
	now  time.Duration
}

// MaterializePacket fills v from packet i of the live content, as of
// now; every exported field is overwritten because views are recycled
// across executions.
//
//progmp:hotpath
//progmp:deterministic
func (l *packetList) MaterializePacket(i int, v *runtime.PacketView) {
	p := l.pkts[l.head+i]
	v.Handle = runtime.PacketHandle(p.Seq + 1)
	v.SentOnMask = p.SentOnMask
	v.Ints[runtime.PktSize] = int64(p.Size)
	v.Ints[runtime.PktSeq] = p.Seq
	v.Ints[runtime.PktProp] = p.Prop
	v.Ints[runtime.PktSentCount] = int64(p.SentCount)
	v.Ints[runtime.PktAgeUS] = (l.now - p.EnqueuedAt).Microseconds()
	if p.SentCount > 0 {
		v.Ints[runtime.PktLastSentUS] = (l.now - p.LastSentAt).Microseconds()
	} else {
		v.Ints[runtime.PktLastSentUS] = -1
	}
}

func (l *packetList) len() int { return len(l.pkts) - l.head }

// reset empties the list and keeps its backing array, every slot nil.
func (l *packetList) reset() {
	clear(l.pkts)
	*l = packetList{pkts: l.pkts[:0]}
}

// all returns the live content (callers must not mutate).
func (l *packetList) all() []*Packet { return l.pkts[l.head:] }

// search returns the live position of the first packet whose sequence
// number is above seq, by sort.Search's bisection written out.
func (l *packetList) search(seq int64) int {
	live := l.all()
	i, j := 0, len(live)
	for i < j {
		h := int(uint(i+j) >> 1)
		if live[h].Seq <= seq {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// extend adds a nil slot at the back. A full backing array whose free
// front is at least as long as the live content is compacted instead
// of grown: the copy moves no more packets than front removals freed
// slots since head was last 0, so it is amortized O(1) per removal.
// The first growth goes straight to ringMinCap slots, as a ring's does.
func (l *packetList) extend() {
	if len(l.pkts) == cap(l.pkts) && l.head > 0 && l.head >= l.len() {
		n := copy(l.pkts, l.pkts[l.head:])
		clear(l.pkts[n:])
		l.pkts, l.head = l.pkts[:n], 0
	}
	if cap(l.pkts) == 0 {
		//progmp:ignore hotpath once per list: its first slot
		l.pkts = make([]*Packet, 0, ringMinCap)
	}
	//progmp:ignore hotpath amortized: grows only while the live content fills more than half the array, so cap stops at its high-water mark
	l.pkts = append(l.pkts, nil)
}

// pushBack appends p.
func (l *packetList) pushBack(p *Packet) {
	l.extend()
	l.pkts[len(l.pkts)-1] = p
}

// insertBySeq inserts p at its sequence-ordered position, shifting the
// shorter side, which preserves the ordering invariant that the binary
// searches rely on. Inserting before the head of a list whose front has
// a free slot fills that slot, in O(1).
func (l *packetList) insertBySeq(p *Packet) {
	i := l.search(p.Seq)
	if l.head > 0 && i < l.len()-i {
		l.head--
		copy(l.pkts[l.head:], l.pkts[l.head+1:l.head+1+i])
		l.pkts[l.head+i] = p
		return
	}
	l.extend()
	at := l.head + i
	copy(l.pkts[at+1:], l.pkts[at:])
	l.pkts[at] = p
}

// remove deletes p, shifting the shorter side and clearing the slot it
// vacates. A seq-sorted list (Q, QU) finds p by bisection, RQ by a
// scan; removing the head is O(1).
func (l *packetList) remove(p *Packet, sorted bool) {
	live := l.all()
	i := 0
	switch {
	case len(live) > 0 && live[0] == p: // a transmission from Q, most ACKs of QU
	case sorted:
		i = l.search(p.Seq - 1)
	default:
		for i < len(live) && live[i] != p {
			i++
		}
	}
	if i == len(live) || live[i] != p {
		return
	}
	if i < len(live)-1-i {
		copy(live[1:], live[:i])
		live[0] = nil
		l.head++
	} else {
		copy(live[i:], live[i+1:])
		live[len(live)-1] = nil
		l.pkts = l.pkts[:len(l.pkts)-1]
	}
	if l.head == len(l.pkts) {
		l.pkts, l.head = l.pkts[:0], 0
	}
}
