package mptcp

import (
	"math/rand"
	"testing"
)

// ringModel is the reference: a map from index to element plus the
// window bounds, with every operation written the obvious way.
type ringModel struct {
	m    map[int64]int
	base int64
	n    int
}

func (r *ringModel) at(i int64) int {
	if i < r.base || i >= r.base+int64(r.n) {
		return 0
	}
	return r.m[i]
}

func (r *ringModel) set(i int64, v int) {
	if i < r.base {
		return
	}
	r.n = max(r.n, int(i-r.base)+1)
	r.m[i] = v
}

func (r *ringModel) popFront() int {
	v := r.at(r.base)
	delete(r.m, r.base)
	r.n = max(r.n-1, 0)
	r.base++
	return v
}

// TestRingMatchesReferenceModel drives ring[T] and the reference with
// one seeded random script: stores far ahead of the window that force a
// growth while the occupied slots wrap around the buffer's end, reads
// below base (a negative index is what PacketHandle(0) resolves to), at
// and after the end, pops of an empty window, and long drain/refill
// phases that move base far from zero.
func TestRingMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r ring[int]
		ref := ringModel{m: map[int64]int{}}
		if r.buf != nil {
			t.Fatalf("zero ring owns a buffer")
		}
		for step := 0; step < 5000; step++ {
			v := rng.Intn(1<<30) + 1
			end := ref.base + int64(ref.n)
			// Phases of 500 steps alternate between filling and draining.
			filling := (step/500)%2 == 0
			switch op := rng.Intn(10); {
			case op < 3 && filling || op < 1:
				r.pushBack(v)
				ref.set(end, v)
			case op < 4:
				i := ref.base + int64(rng.Intn(ref.n+3)) // inside, or just past the end
				r.set(i, v)
				ref.set(i, v)
			case op < 5 && rng.Intn(20) == 0:
				i := end + int64(rng.Intn(300)) // far ahead: holes, and growth by several doublings
				r.set(i, v)
				ref.set(i, v)
			case op < 6:
				i := ref.base - 1 - int64(rng.Intn(5)) // retired: dropped
				r.set(i, v)
				ref.set(i, v)
			default:
				if !filling || rng.Intn(3) == 0 {
					if got, want := r.popFront(), ref.popFront(); got != want {
						t.Fatalf("seed %d step %d: popFront = %d, reference %d", seed, step, got, want)
					}
				}
			}
			if r.base != ref.base || r.len() != ref.n {
				t.Fatalf("seed %d step %d: window [%d,+%d), reference [%d,+%d)", seed, step, r.base, r.len(), ref.base, ref.n)
			}
			if c := len(r.buf); c&(c-1) != 0 || c < r.len() {
				t.Fatalf("seed %d step %d: capacity %d for %d elements", seed, step, c, r.len())
			}
			for _, i := range []int64{-1, -ref.base - 7, ref.base - 1, ref.base, ref.base + int64(rng.Intn(ref.n+1)), end - 1, end, end + 1, end + 1<<40} {
				if got, want := r.at(i), ref.at(i); got != want {
					t.Fatalf("seed %d step %d: at(%d) = %d, reference %d (window [%d,+%d))", seed, step, i, got, want, ref.base, ref.n)
				}
			}
		}
		// Every slot outside the window is zero, so a window that grows
		// over it exposes no stale element (and holds no stale pointer).
		live := map[int]bool{}
		for i := r.base; i < r.base+int64(r.len()); i++ {
			live[int(i)&(len(r.buf)-1)] = true
		}
		for slot, v := range r.buf {
			if !live[slot] && v != 0 {
				t.Fatalf("seed %d: slot %d outside the window holds %d", seed, slot, v)
			}
		}
	}

	// Once a window has reached its high-water mark, sliding it forward
	// — across many wraps of the buffer — allocates nothing.
	var r ring[*Packet]
	p := &Packet{}
	for i := 0; i < 100; i++ {
		r.pushBack(p)
	}
	if len(r.buf) != 128 {
		t.Fatalf("100 elements live in a buffer of %d, want 128", len(r.buf))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.popFront()
		r.popFront()
		r.set(r.base+int64(r.len())+1, p) // leaves a hole, filled next
		r.set(r.base+int64(r.len())-2, p)
		if r.at(r.base) != p || r.len() != 100 {
			t.Fatalf("window lost an element")
		}
	})
	if allocs != 0 {
		t.Fatalf("sliding a full-grown window allocates %.1f times per step, want 0", allocs)
	}
	// The first growth holds a 16 KiB burst (12 segments).
	var small ring[*Packet]
	for i := 0; i < 12; i++ {
		small.pushBack(p)
	}
	if len(small.buf) != ringMinCap {
		t.Fatalf("a 12-segment burst grew the window to %d slots, want %d", len(small.buf), ringMinCap)
	}
}
