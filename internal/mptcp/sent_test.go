package mptcp

import (
	"math/rand"
	"testing"
)

// FuzzSentCursor holds QU's answers to "how many leading packets were
// sent on subflow k" to a brute-force first-unsent scan while random
// list operations run: appends of fresh packets to Q, sequence-ordered
// inserts into Q and QU, appends to the loss-ordered RQ in any order,
// removals from the sorted and the unsorted lists, and transmissions
// that set a packet's bit. The cursors' invariant is checked after
// every operation. Subflow 4 does not exist, so QU skips nothing for
// it, and no packet carries its bit.
func FuzzSentCursor(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 1, 6, 0, 5, 0, 6, 0, 4, 0, 6, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 1, 1, 2, 6, 1, 5, 9, 1, 0, 6, 1, 3, 2, 6, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 64+rng.Intn(192))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nSbf = 4
		c := &Conn{}
		for id := 0; id < nSbf; id++ {
			c.subflows = append(c.subflows, &Subflow{id: id})
		}
		var pkts []*Packet
		pick := func(b byte) *Packet { return pkts[int(b)%len(pkts)] }
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, ops[i+1]
			if op != 0 && len(pkts) == 0 {
				op = 0
			}
			switch op {
			case 0: // a fresh packet at the back of Q
				p := &Packet{Seq: int64(len(pkts))}
				pkts = append(pkts, p)
				c.move(p, inQ, true)
			case 1: // into QU by sequence number (a transmission, a DROP from RQ)
				c.move(pick(arg), inQU, false)
			case 2: // to the back of RQ, in loss order
				c.move(pick(arg), inRQ, true)
			case 3: // back into Q by sequence number
				c.move(pick(arg), inQ, false)
			case 4: // out of every queue
				c.move(pick(arg), nowhere, false)
			case 5: // a transmission: bits are only ever set
				pick(arg).SentOnMask |= 1 << uint(arg>>5%nSbf)
			case 6:
				k, live := int(arg)%(nSbf+1), c.queues[inQU].all()
				want := 0
				for want < len(live) && live[want].SentOnMask&(1<<uint(k)) != 0 {
					want++
				}
				if got := (*unackedSource)(c).SentPrefix(k); got != want {
					t.Fatalf("round %d: QU SentPrefix(%d) = %d, first unsent at %d (seqs %v)", i/2, k, got, want, seqsOf(live))
				}
			}
			checkSentCursors(t, c, i/2)
		}
	})
}

// checkSentCursors fails unless every QU packet below an asked
// subflow's sent cursor was sent on it, and the cursor of a subflow
// never asked about is still 0.
func checkSentCursors(t *testing.T, c *Conn, round int) {
	t.Helper()
	for _, s := range c.subflows {
		bit := uint64(1) << uint(s.id)
		if c.sentAsked&bit == 0 {
			if s.sentCursor != 0 {
				t.Fatalf("round %d: subflow %d was never asked about, yet its sent cursor is %d", round, s.id, s.sentCursor)
			}
			continue
		}
		for _, p := range c.queues[inQU].all() {
			if p.Seq < s.sentCursor && p.SentOnMask&bit == 0 {
				t.Fatalf("round %d: QU seq %d lies below subflow %d's sent cursor %d but was never sent on it", round, p.Seq, s.id, s.sentCursor)
			}
		}
	}
}
