package vm

import (
	"fmt"
	"sort"
)

// The allocator maps unlimited virtual registers onto the physical
// file. It implements a non-splitting variant of linear-scan register
// allocation with second-chance binpacking (Traub, Holloway and Smith,
// PLDI 1998 — the algorithm the paper's in-kernel eBPF cross-compiler
// uses): intervals that lose the first scan get a second chance to
// bin-pack into lifetime holes of already-assigned registers before
// being spilled to memory slots; spilled values are accessed through
// two reserved scratch registers.

// numAllocatable physical registers; the last two are spill scratch.
const (
	numAllocatable = NumPhysRegs - 2
	scratchA       = NumPhysRegs - 2
	scratchB       = NumPhysRegs - 1
)

// interval is the conservative live range of one virtual register,
// in IR instruction indices (inclusive).
type interval struct {
	vreg       int
	start, end int
	phys       int // assigned physical register, or -1
	slot       int // assigned spill slot, or -1
}

// buildIntervals computes conservative live intervals and extends them
// across backward edges so that values live anywhere inside a loop stay
// live for the whole loop.
func buildIntervals(ir []irIns, nv int) []interval {
	ivs := make([]interval, nv)
	for v := range ivs {
		ivs[v] = interval{vreg: v, start: -1, end: -1, phys: -1, slot: -1}
	}
	touch := func(v, at int) {
		iv := &ivs[v]
		if iv.start == -1 || at < iv.start {
			iv.start = at
		}
		if at > iv.end {
			iv.end = at
		}
	}
	for i, in := range ir {
		r := &ops[in.op]
		if r.readsA {
			touch(in.a, i)
		}
		if r.readsB {
			touch(in.b, i)
		}
		if r.writesDst {
			touch(in.dst, i)
		}
	}
	// Collect backward edges (jump at j targeting t <= j).
	type edge struct{ t, j int }
	var back []edge
	for j, in := range ir {
		if isJump(in.op) {
			t := j + 1 + int(in.k)
			if t <= j {
				back = append(back, edge{t: t, j: j})
			}
		}
	}
	// Extend to fixpoint: an interval overlapping a loop body must
	// cover the whole body.
	for changed := true; changed; {
		changed = false
		for _, e := range back {
			for v := range ivs {
				iv := &ivs[v]
				if iv.start == -1 {
					continue
				}
				if iv.start <= e.j && iv.end >= e.t {
					if iv.end < e.j {
						iv.end = e.j
						changed = true
					}
					if iv.start > e.t {
						iv.start = e.t
						changed = true
					}
				}
			}
		}
	}
	// Drop never-used vregs.
	used := ivs[:0]
	for _, iv := range ivs {
		if iv.start != -1 {
			used = append(used, iv)
		}
	}
	return used
}

// allocate assigns physical registers and spill slots, then rewrites
// the IR into executable instructions with spill traffic through the
// scratch registers. It returns the instructions and spill-slot count.
func allocate(ir []irIns, nv int) ([]Instr, int, error) {
	ivs := buildIntervals(ir, nv)
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end < ivs[j].end
	})

	// First scan: classic linear scan with furthest-end eviction.
	var active []*interval // sorted by end
	var spilled []*interval
	freeRegs := make([]int, 0, numAllocatable)
	for r := numAllocatable - 1; r >= 0; r-- {
		freeRegs = append(freeRegs, r) // pop from the back → r0 first
	}
	insertActive := func(iv *interval) {
		i := sort.Search(len(active), func(i int) bool { return active[i].end > iv.end })
		active = append(active, nil)
		copy(active[i+1:], active[i:])
		active[i] = iv
	}
	for i := range ivs {
		iv := &ivs[i]
		// Expire finished intervals.
		keep := active[:0]
		for _, a := range active {
			if a.end < iv.start {
				freeRegs = append(freeRegs, a.phys)
			} else {
				keep = append(keep, a)
			}
		}
		active = keep
		if len(freeRegs) > 0 {
			iv.phys = freeRegs[len(freeRegs)-1]
			freeRegs = freeRegs[:len(freeRegs)-1]
			insertActive(iv)
			continue
		}
		// Pressure: spill the interval ending furthest (current or the
		// longest active one).
		last := active[len(active)-1]
		if last.end > iv.end {
			iv.phys = last.phys
			last.phys = -1
			spilled = append(spilled, last)
			active = active[:len(active)-1]
			insertActive(iv)
		} else {
			spilled = append(spilled, iv)
		}
	}

	// Second chance: bin-pack spilled intervals into lifetime holes of
	// the physical registers before resorting to memory.
	regBusy := make([][]*interval, numAllocatable)
	for i := range ivs {
		if iv := &ivs[i]; iv.phys >= 0 {
			regBusy[iv.phys] = append(regBusy[iv.phys], iv)
		}
	}
	overlaps := func(list []*interval, iv *interval) bool {
		for _, o := range list {
			if iv.start <= o.end && o.start <= iv.end {
				return true
			}
		}
		return false
	}
	nSlots := 0
	for _, iv := range spilled {
		placed := false
		for r := 0; r < numAllocatable; r++ {
			if !overlaps(regBusy[r], iv) {
				iv.phys = r
				regBusy[r] = append(regBusy[r], iv)
				placed = true
				break
			}
		}
		if !placed {
			iv.slot = nSlots
			nSlots++
		}
	}

	// Location map.
	type loc struct{ phys, slot int }
	locs := make(map[int]loc, len(ivs))
	for i := range ivs {
		iv := &ivs[i]
		locs[iv.vreg] = loc{phys: iv.phys, slot: iv.slot}
	}

	// Rewrite pass: start[i] is where instruction i's code begins (its
	// spill loads first) and origin names the instruction each emitted
	// op came from, -1 for spill traffic.
	start := make([]int, len(ir)+1)
	var origin []int
	var out []Instr
	spill := func(in Instr) {
		out = append(out, in)
		origin = append(origin, -1)
	}
	for i, in := range ir {
		start[i] = len(out)
		r := &ops[in.op]
		ni := Instr{Op: in.op, Line: in.line, K: in.k}
		if r.bIsProp {
			ni.B = uint8(in.b)
		}
		if r.readsA {
			l, ok := locs[in.a]
			if !ok {
				return nil, 0, fmt.Errorf("read of unallocated vreg %d at %d", in.a, i)
			}
			if l.phys >= 0 {
				ni.A = uint8(l.phys)
			} else {
				spill(Instr{Op: OpLoadSlot, Dst: scratchA, K: int64(l.slot)})
				ni.A = scratchA
			}
		}
		if r.readsB {
			l, ok := locs[in.b]
			if !ok {
				return nil, 0, fmt.Errorf("read of unallocated vreg %d at %d", in.b, i)
			}
			if l.phys >= 0 {
				ni.B = uint8(l.phys)
			} else {
				spill(Instr{Op: OpLoadSlot, Dst: scratchB, K: int64(l.slot)})
				ni.B = scratchB
			}
		}
		var storeAfter *Instr
		if r.writesDst {
			l, ok := locs[in.dst]
			if !ok {
				return nil, 0, fmt.Errorf("write of unallocated vreg %d at %d", in.dst, i)
			}
			if l.phys >= 0 {
				ni.Dst = uint8(l.phys)
			} else {
				ni.Dst = scratchA
				storeAfter = &Instr{Op: OpStoreSlot, A: scratchA, K: int64(l.slot)}
			}
		}
		if t := i + 1 + int(in.k); isJump(in.op) && (t < 0 || t > len(ir)) {
			return nil, 0, fmt.Errorf("jump at %d targets out-of-range %d", i, t)
		}
		out = append(out, ni)
		origin = append(origin, i)
		if storeAfter != nil {
			spill(*storeAfter)
		}
	}
	start[len(ir)] = len(out)
	relocateJumps(origin, start, jumpOffsets(out))
	return out, nSlots, nil
}

// jumpOffsets adapts a bytecode sequence to relocateJumps.
func jumpOffsets(code []Instr) func(pos int) *int64 {
	return func(pos int) *int64 {
		if isJump(code[pos].Op) {
			return &code[pos].K
		}
		return nil
	}
}
