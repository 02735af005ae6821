package mptcp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkPacketList fails unless l's live content equals want and every
// slot outside it, up to cap, is nil.
func checkPacketList(t *testing.T, l *packetList, want []*Packet, seed int64, step int) {
	t.Helper()
	if l.len() != len(want) || !slices.Equal(l.all(), want) {
		t.Fatalf("seed %d step %d: list %v, reference %v", seed, step, seqsOf(l.all()), seqsOf(want))
	}
	if i, p := straySlot(l); p != nil {
		t.Fatalf("seed %d step %d: slot %d outside the live range [%d,%d) holds seq %d", seed, step, i, l.head, len(l.pkts), p.Seq)
	}
}

// straySlot returns the first slot of l's backing array that lies
// outside the live range and still holds a packet, and that packet.
func straySlot(l *packetList) (int, *Packet) {
	for i, p := range l.pkts[:cap(l.pkts)] {
		if p != nil && (i < l.head || i >= len(l.pkts)) {
			return i, p
		}
	}
	return -1, nil
}

func seqsOf(ps []*Packet) []int64 {
	seqs := make([]int64, len(ps))
	for i, p := range ps {
		seqs[i] = p.Seq
	}
	return seqs
}

// TestPacketListMatchesReferenceModel drives packetList and a plain
// slice with one seeded random script: appends of rising sequence
// numbers, sequence-ordered inserts at the front (a packet returning
// ahead of the head while head > 0), middle and back, and removals at
// the front, middle and back, in phases that fill the list, slide it
// forward through compactions and drain it to empty.
// Odd seeds run the list loss-ordered and removed by scan, as RQ is,
// where an insert must still land where sort.Search lands.
// Every step the live range must equal the reference and every other
// slot must be nil.
func TestPacketListMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sorted := seed%2 == 0
		var l packetList
		var ref, pool []*Packet // pool: removed packets, reinsertable
		next := int64(0)
		fresh := func() *Packet {
			next += 4
			if sorted {
				return &Packet{Seq: next}
			}
			return &Packet{Seq: rng.Int63n(1<<30)<<20 | next} // unique, in random order
		}
		compactions, emptied, step := 0, 0, 0
		// add appends p or inserts it by sequence number, and checks
		// that an addition through extend compacts a full array exactly
		// when its free front is at least as long as its live content,
		// and otherwise moves head only to insert ahead of the head.
		add := func(p *Packet, push bool) {
			i := len(ref)
			if !push {
				i = sort.Search(len(ref), func(i int) bool { return ref[i].Seq > p.Seq })
			}
			full, live, head, c := len(l.pkts) == cap(l.pkts), l.len(), l.head, cap(l.pkts)
			if push {
				l.pushBack(p)
			} else {
				l.insertBySeq(p)
			}
			ref = slices.Insert(ref, i, p)
			switch {
			case !push && head > 0 && i < live-i: // the front side shifts
				if l.head != head-1 || cap(l.pkts) != c {
					t.Fatalf("seed %d step %d: insert at %d of %d moved head %d → %d, cap → %d", seed, step, i, live, head, l.head, cap(l.pkts))
				}
			case full && head > 0 && head >= live:
				compactions++
				if l.head != 0 || cap(l.pkts) != c {
					t.Fatalf("seed %d step %d: adding onto a full array with %d free of %d did not compact in place", seed, step, head, c)
				}
			case full && cap(l.pkts) == c:
				t.Fatalf("seed %d step %d: adding onto a full array with %d free of %d compacted it instead of growing", seed, step, head, c)
			case !full && (l.head != head || cap(l.pkts) != c):
				t.Fatalf("seed %d step %d: adding with %d of %d slots used moved head %d → %d, cap → %d", seed, step, head+live, c, head, l.head, cap(l.pkts))
			}
		}
		removeAt := func(i int) {
			p := ref[i]
			l.remove(p, sorted)
			ref = slices.Delete(ref, i, i+1)
			pool = append(pool, p)
		}
		for ; step < 5000; step++ {
			// Each 2500 steps fill the list, slide it (appends and head
			// removals at about the same rate, as Q and QU run) long
			// enough to reach the end of its array, and drain it. The
			// weights are of append, transmission at the back, removal
			// and reinsertion of the head, reinsertion, removal.
			mode := 0
			switch phase := step % 2500; {
			case phase >= 1700:
				mode = 2
			case phase >= 300:
				mode = 1
			}
			w := [3][5]int{{4, 1, 1, 1, 3}, {4, 1, 0, 0, 5}, {1, 0, 1, 1, 7}}[mode]
			op := rng.Intn(10)
			switch {
			case op < w[0] || op < w[0]+w[1] && !sorted:
				add(fresh(), true)
			case op < w[0]+w[1]:
				add(fresh(), false) // a transmission joining QU at its back
			case op < w[0]+w[1]+w[2]:
				if len(ref) == 0 {
					break
				}
				p := ref[0]
				removeAt(0)
				pool = pool[:len(pool)-1]
				add(p, false)
			case op < w[0]+w[1]+w[2]+w[3]:
				if len(pool) == 0 {
					break
				}
				k := rng.Intn(len(pool))
				p := pool[k]
				pool = slices.Delete(pool, k, k+1)
				add(p, false)
			default:
				if len(ref) == 0 {
					break
				}
				switch r := rng.Intn(10); {
				case r < 4 || mode == 1:
					removeAt(0)
				case r < 7:
					removeAt(rng.Intn(len(ref)))
				default:
					removeAt(len(ref) - 1)
				}
				if len(ref) == 0 {
					emptied++
					if l.head != 0 || len(l.pkts) != 0 {
						t.Fatalf("seed %d step %d: an empty list keeps head %d, length %d", seed, step, l.head, len(l.pkts))
					}
				}
			}
			if len(pool) > 64 {
				pool = pool[len(pool)-64:] // the rest were acknowledged
			}
			checkPacketList(t, &l, ref, seed, step)
		}
		if compactions == 0 || emptied == 0 {
			t.Fatalf("seed %d: %d compactions and %d drains to empty; the script exercises neither", seed, compactions, emptied)
		}
	}

	// Once a list has reached its high-water mark, sliding it forward —
	// through compactions — allocates nothing.
	pkts := make([]*Packet, 4000)
	for i := range pkts {
		pkts[i] = &Packet{Seq: int64(i)}
	}
	var l packetList
	n := 0
	for ; n < 100; n++ {
		l.pushBack(pkts[n])
	}
	allocs := testing.AllocsPerRun(1000, func() {
		head := l.pkts[l.head]
		l.remove(head, true) // out of Q
		l.insertBySeq(head)  // and back ahead of the new head
		l.remove(head, true) // transmitted
		mid := l.all()[l.len()/2]
		l.remove(mid, true)
		l.insertBySeq(mid)
		l.pushBack(pkts[n])
		n++
		if l.len() != 100 {
			t.Fatalf("list holds %d packets, want 100", l.len())
		}
	})
	if allocs != 0 {
		t.Fatalf("sliding a full-grown list allocates %.1f times per step, want 0", allocs)
	}
}
