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
	"sort"
	"time"

	"progmp/internal/runtime"
)

// Packet is one meta-level segment. Segments carry a data sequence
// number at packet granularity; the size is the payload in bytes.
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
	// MetaAcked is set once the cumulative DATA_ACK covers the packet;
	// acked packets are automatically removed from all queues (§3.1).
	MetaAcked bool

	// where is the queue holding the packet.
	where place
	// consumedGen stamps the applyActions pass (Conn.applyGen) that
	// pushed or dropped the packet, replacing a per-pass map.
	consumedGen uint64
}

// sentOn reports a prior transmission on the subflow id.
func (p *Packet) sentOn(id int) bool { return p.SentOnMask&(1<<uint(id)) != 0 }

// place names the one queue a packet is in. The queues are pairwise
// disjoint views over one sequence space (§3.1), so membership is a
// field on the packet; Conn.move is its only writer.
type place uint8

const (
	nowhere place = iota // acked, dropped, or popped and not yet restored
	inQ
	inQU
	inRQ
)

// placeOf is the place of a scheduler-visible queue.
func placeOf(id runtime.QueueID) place { return place(id) + 1 }

// packetList is the ordered content of one of Q, QU and RQ. Membership
// lives in Packet.where: callers add a packet that is in no list and
// remove one that is in this list.
type packetList struct {
	pkts []*Packet
}

func (l *packetList) len() int { return len(l.pkts) }

// pushBack appends p.
func (l *packetList) pushBack(p *Packet) {
	//progmp:ignore hotpath amortized: remove shrinks in place, so cap is retained in steady state
	l.pkts = append(l.pkts, p)
}

// insertBySeq inserts p at its sequence-ordered position. On a
// seq-sorted list this is a sorted insert; reinserting
// popped-but-unconsumed packets this way (packets must not be lost by
// design, §3.3) preserves the ordering invariant that the sorted-insert
// binary searches rely on.
func (l *packetList) insertBySeq(p *Packet) {
	//progmp:ignore hotpath sort.Search's comparator does not escape; the closure stays on the stack
	idx := sort.Search(len(l.pkts), func(i int) bool { return l.pkts[i].Seq > p.Seq })
	//progmp:ignore hotpath amortized: reinsertion refills a slot freed by remove, so cap is retained in steady state
	l.pkts = append(l.pkts, nil)
	copy(l.pkts[idx+1:], l.pkts[idx:])
	l.pkts[idx] = p
}

// remove deletes p.
func (l *packetList) remove(p *Packet) {
	for i, cand := range l.pkts {
		if cand == p {
			//progmp:ignore hotpath in-place shrink: len never grows past cap
			l.pkts = append(l.pkts[:i], l.pkts[i+1:]...)
			return
		}
	}
}

// all returns the underlying slice (callers must not mutate).
func (l *packetList) all() []*Packet { return l.pkts }
