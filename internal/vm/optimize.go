package vm

// IR-level optimizations run between the cross-compiler and the
// register allocator (the paper's runtime performs the analogous
// simplifications on its intermediate representation, §4.1):
//
//   - jump threading: a jump whose target is an unconditional jump is
//     retargeted to the final destination
//   - block-local constant folding: immediates propagate through moves
//     and pure ALU ops; branches on known conditions become jumps/no-ops
//     (this is what collapses the constant subflow masks and bounds that
//     specialization bakes in)
//   - compare-and-branch fusion: a comparison (or boolean NOT) whose
//     only consumer is the adjacent conditional jump fuses into one
//     OpJeq..OpJge instruction (or an inverted OpJz/OpJnz)
//   - move coalescing: `op t, ...; mov d, t` with t used once collapses
//     into `op d, ...`
//   - dead-def elimination: a pure instruction whose result is never
//     read afterwards (global liveness) is dropped
//   - dead-code elimination: instructions unreachable from the entry
//     are removed (with jump offsets remapped)
//   - trivial-move removal: `mov r, r` becomes a no-op and is dropped
//
// All passes preserve semantics exactly; the three-way differential
// tests exercise them on every randomly generated program.

// optimize applies the IR passes until a fixpoint (bounded), then
// hoists rematerialized constants into an entry preamble and cleans up
// once more.
func optimize(ir []irIns) []irIns {
	ir = fixpoint(ir)
	if out, hoisted := hoistConsts(ir); hoisted {
		ir = fixpoint(out)
	}
	return ir
}

func fixpoint(ir []irIns) []irIns {
	for round := 0; round < 10; round++ {
		out, c1 := threadJumps(ir)
		c2 := condJumpThread(out)
		c3 := constFold(out)
		c4 := fuseCompareBranch(out)
		c5 := zeroCompareJumps(out)
		c6 := coalesceMovs(out)
		c7 := deadDefs(out)
		out, c8 := eliminateDead(out)
		ir = out
		if !c1 && !c2 && !c3 && !c4 && !c5 && !c6 && !c7 && !c8 {
			break
		}
	}
	return ir
}

// hoistConsts merges globally-constant vregs (see globalConsts) holding
// the same value into one canonical vreg defined once in an entry
// preamble, no-op-ing the scattered movimm defs. Specialized unrolled
// code rematerializes the same loop indices and handles many times;
// after hoisting each distinct value costs one instruction per
// execution. Prepending is safe: jump offsets are relative, so the
// uniform shift preserves every edge, and no jump can target the
// preamble (offsets only reach existing instructions).
func hoistConsts(ir []irIns) ([]irIns, bool) {
	nv := maxVreg(ir)
	if nv == 0 {
		return ir, false
	}
	gknown, gval := globalConsts(ir, nv)
	// Hoisting pays off only for values rematerialized at 2+ sites:
	// one def site merely moves to the preamble.
	defSites := make(map[int64]int)
	for _, in := range ir {
		if in.op == OpMovImm && in.dst < nv && gknown[in.dst] {
			defSites[in.k]++
		}
	}
	canon := make(map[int64]int) // value → canonical vreg
	next := nv
	var order []int64 // deterministic preamble order: first def wins
	for _, in := range ir {
		if in.op == OpMovImm && in.dst < nv && gknown[in.dst] && defSites[in.k] > 1 {
			if _, ok := canon[in.k]; !ok {
				canon[in.k] = next
				next++
				order = append(order, in.k)
			}
		}
	}
	if len(canon) == 0 {
		return ir, false
	}
	out := make([]irIns, 0, len(ir)+len(canon))
	for _, k := range order {
		out = append(out, irIns{op: OpMovImm, dst: canon[k], k: k})
	}
	for _, in := range ir {
		if in.op == OpMovImm && in.dst < nv && gknown[in.dst] {
			if _, ok := canon[in.k]; ok {
				// The value now lives in the canonical vreg.
				in.op, in.k = OpNop, 0
				out = append(out, in)
				continue
			}
		}
		r := &ops[in.op]
		if r.readsA && in.a < nv && gknown[in.a] {
			if cv, ok := canon[gval[in.a]]; ok {
				in.a = cv
			}
		}
		if r.readsB && in.b < nv && gknown[in.b] {
			if cv, ok := canon[gval[in.b]]; ok {
				in.b = cv
			}
		}
		out = append(out, in)
	}
	return out, true
}

// threadJumps retargets jumps that land on unconditional jumps and
// drops self-moves.
func threadJumps(ir []irIns) ([]irIns, bool) {
	changed := false
	// finalTarget follows OpJmp chains (with a hop bound for safety
	// against adversarial cycles).
	finalTarget := func(idx int) int {
		for hops := 0; hops < len(ir); hops++ {
			if idx < 0 || idx >= len(ir) {
				return idx
			}
			in := ir[idx]
			if in.op != OpJmp {
				return idx
			}
			next := idx + 1 + int(in.k)
			if next == idx { // self-loop: leave it
				return idx
			}
			idx = next
		}
		return idx
	}
	out := make([]irIns, len(ir))
	copy(out, ir)
	for i := range out {
		in := &out[i]
		if isJump(in.op) {
			target := i + 1 + int(in.k)
			final := finalTarget(target)
			if final != target {
				in.k = int64(final - i - 1)
				changed = true
			}
		}
		if in.op == OpMov && in.dst == in.a {
			in.op = OpNop
			changed = true
		}
		if in.op == OpJmp && in.k == 0 {
			// Jump to the next instruction: pure fall-through.
			in.op = OpNop
			changed = true
		}
	}
	return out, changed
}

// condJumpThread retargets a conditional jump whose destination is
// another conditional jump testing the same condition: the second
// test's outcome is already decided on arrival, so the first jump can
// go straight to where the second one would. Nothing executes between
// the two (the destination IS the second jump), so the tested registers
// are untouched in between.
func condJumpThread(ir []irIns) bool {
	sameCond := func(a, b irIns) bool {
		if a.op != b.op {
			return false
		}
		return condOperandsEqual(a, b)
	}
	changed := false
	for i := range ir {
		in := &ir[i]
		if !isCondJump(in.op) {
			continue
		}
		t := i + 1 + int(in.k)
		if t < 0 || t >= len(ir) || t == i {
			continue
		}
		if sameCond(*in, ir[t]) {
			// Taken here → taken there too: land beyond the second jump.
			next := t + 1 + int(ir[t].k)
			if next >= 0 && next < len(ir) && next != t && next != i {
				in.k = int64(next - i - 1)
				changed = true
			}
		} else if invCond(*in, ir[t]) {
			// Taken here → NOT taken there: fall through the second jump.
			if t+1 < len(ir) {
				in.k = int64(t - i)
				changed = true
			}
		}
	}
	return changed
}

// invCond reports that jump b's condition is the exact complement of
// conditional jump a's over identical operands, so a taken implies b not
// taken.
func invCond(a, b irIns) bool {
	return b.op == ops[a.op].inv && condOperandsEqual(a, b)
}

// condOperandsEqual compares the condition operands of two jumps with
// the same (or complementary) opcode, B also where it is a property
// index and not a register.
func condOperandsEqual(a, b irIns) bool {
	r := &ops[a.op]
	if r.readsA && a.a != b.a {
		return false
	}
	return !(r.readsB || r.bIsProp) || a.b == b.b
}

// blockLeaders marks basic-block entry points: instruction 0, every
// jump target, and every instruction following a jump or a return.
func blockLeaders(ir []irIns) []bool {
	leader := make([]bool, len(ir)+1)
	if len(ir) > 0 {
		leader[0] = true
	}
	for i, in := range ir {
		if isJump(in.op) {
			if t := i + 1 + int(in.k); t >= 0 && t <= len(ir) {
				leader[t] = true
			}
		}
		if isJump(in.op) || in.op == OpReturn {
			leader[i+1] = true
		}
	}
	return leader
}

// readCounts tallies how many instruction operands read each vreg.
func readCounts(ir []irIns, nv int) []int {
	counts := make([]int, nv)
	for _, in := range ir {
		r := &ops[in.op]
		if r.readsA {
			counts[in.a]++
		}
		if r.readsB {
			counts[in.b]++
		}
	}
	return counts
}

func maxVreg(ir []irIns) int {
	nv := 0
	for _, in := range ir {
		r := &ops[in.op]
		if r.readsA && in.a >= nv {
			nv = in.a + 1
		}
		if r.readsB && in.b >= nv {
			nv = in.b + 1
		}
		if r.writesDst && in.dst >= nv {
			nv = in.dst + 1
		}
	}
	return nv
}

// globalConsts finds vregs whose every definition is OpMovImm of one
// value and whose first definition precedes the first read: those hold
// that constant everywhere. This is what carries specialization-time
// constants (subflow masks, unrolled loop indices) across the block
// boundaries that conditional branches introduce.
func globalConsts(ir []irIns, nv int) ([]bool, []int64) {
	const (
		unseen = iota
		constant
		dynamic
	)
	state := make([]uint8, nv)
	val := make([]int64, nv)
	firstRead := make([]int, nv)
	firstDef := make([]int, nv)
	for v := range firstRead {
		firstRead[v] = len(ir)
		firstDef[v] = len(ir)
	}
	for i, in := range ir {
		r := &ops[in.op]
		if r.readsA && in.a < nv && i < firstRead[in.a] {
			firstRead[in.a] = i
		}
		if r.readsB && in.b < nv && i < firstRead[in.b] {
			firstRead[in.b] = i
		}
		if r.writesDst && in.dst < nv {
			if i < firstDef[in.dst] {
				firstDef[in.dst] = i
			}
			if in.op == OpMovImm {
				switch state[in.dst] {
				case unseen:
					state[in.dst], val[in.dst] = constant, in.k
				case constant:
					if val[in.dst] != in.k {
						state[in.dst] = dynamic
					}
				}
			} else {
				state[in.dst] = dynamic
			}
		}
	}
	known := make([]bool, nv)
	for v := range known {
		known[v] = state[v] == constant && firstDef[v] < firstRead[v]
	}
	return known, val
}

// constFold propagates constants and folds pure instructions whose
// operands are all known, turning decided branches into unconditional
// jumps or no-ops. Constants are tracked block-locally plus globally
// (single-valued vregs, see globalConsts). The arithmetic is the ISA
// table's fold and taken, which TestOpTableMatchesExec holds to the VM:
// int64 wraparound, and division or modulo by zero yields 0 (no
// exceptions by design, §3.3).
func constFold(ir []irIns) bool {
	leader := blockLeaders(ir)
	nv := maxVreg(ir)
	gknown, gval := globalConsts(ir, nv)
	konst := make([]int64, nv)
	known := make([]bool, nv)
	changed := false
	for i := range ir {
		if i < len(leader) && leader[i] {
			for v := range known {
				known[v] = false
			}
		}
		in := &ir[i]
		var va, vb int64
		ka, kb := false, false
		r := &ops[in.op]
		if r.readsA && in.a < nv {
			if known[in.a] {
				ka, va = true, konst[in.a]
			} else if gknown[in.a] {
				ka, va = true, gval[in.a]
			}
		}
		if r.readsB && in.b < nv {
			if known[in.b] {
				kb, vb = true, konst[in.b]
			} else if gknown[in.b] {
				kb, vb = true, gval[in.b]
			}
		}
		switch {
		case (r.readsA && !ka) || (r.readsB && !kb):
			// An operand is unknown: nothing to decide.
		case r.fold != nil:
			in.op, in.k = OpMovImm, r.fold(va, vb)
			changed = true
		case r.taken != nil:
			if r.taken(va, vb) {
				in.op = OpJmp
			} else {
				in.op, in.k = OpNop, 0
			}
			changed = true
		}
		// Update the constant state with this instruction's result.
		if ops[in.op].writesDst && in.dst < nv {
			if in.op == OpMovImm {
				known[in.dst], konst[in.dst] = true, in.k
			} else {
				known[in.dst] = false
			}
		}
	}
	return changed
}

// fuseCompareBranch rewrites `cmp t, a, b; jnz t, L` into a single
// fused compare-and-branch (and `jz t, L` into its inversion), plus
// `not t, a; jz/jnz t, L` into the opposite plain branch — provided t
// dies at the jump (liveness, so multi-def short-circuit chains fuse
// too) and no other control flow can enter between the pair.
func fuseCompareBranch(ir []irIns) bool {
	nv := maxVreg(ir)
	if nv == 0 {
		return false
	}
	liveOut, words := liveSets(ir, nv)
	leader := blockLeaders(ir)
	changed := false
	for i := 0; i+1 < len(ir); i++ {
		def := &ir[i]
		jmp := &ir[i+1]
		if (jmp.op != OpJz && jmp.op != OpJnz) || jmp.a != def.dst {
			continue
		}
		// The jump must be reachable only by falling out of the compare:
		// a side entry would evaluate the fused condition on unrelated
		// register contents.
		if leader[i+1] {
			continue
		}
		if !ops[def.op].writesDst || def.dst >= nv {
			continue
		}
		// t must die at the jump: a later read would miss the value.
		j := i + 1
		if bitSet(liveOut[j*words:(j+1)*words], def.dst) {
			continue
		}
		switch op := ops[def.op].jump; {
		case op != OpNop:
			if jmp.op == OpJz {
				op = ops[op].inv
			}
			jmp.op, jmp.a, jmp.b = op, def.a, def.b
		case def.op == OpNot:
			jmp.op, jmp.a = ops[jmp.op].inv, def.a
		default:
			continue
		}
		def.op, def.k = OpNop, 0
		changed = true
	}
	return changed
}

// coalesceMovs collapses `op t, ...; mov d, t` into `op d, ...` when t
// is read only by that move, the pair sits in one basic block, and d is
// untouched in between.
func coalesceMovs(ir []irIns) bool {
	nv := maxVreg(ir)
	counts := readCounts(ir, nv)
	leader := blockLeaders(ir)
	changed := false
	for j := range ir {
		mv := &ir[j]
		if mv.op != OpMov || mv.a >= nv || counts[mv.a] != 1 || mv.a == mv.dst {
			continue
		}
		// A side entry at the move would bypass the retargeted def.
		if leader[j] {
			continue
		}
		// Walk back to t's def within the block.
		for i := j - 1; i >= 0; i-- {
			in := &ir[i]
			r := &ops[in.op]
			if r.writesDst && in.dst == mv.a {
				// Found the def. Retarget it unless d is used in between
				// (the scan above already proved it is not).
				in.dst = mv.dst
				mv.op, mv.a, mv.k = OpNop, 0, 0
				changed = true
				break
			}
			// d read, written, or block boundary in between: give up.
			if (r.readsA && in.a == mv.dst) || (r.readsB && in.b == mv.dst) ||
				(r.writesDst && in.dst == mv.dst) || leader[i+1] {
				break
			}
		}
	}
	return changed
}

// bitSet reports whether vreg v is present in the bitset.
func bitSet(set []uint64, v int) bool { return set[v/64]&(1<<(v%64)) != 0 }

// liveSets computes per-instruction live-out bitsets with a global
// backward dataflow over the CFG. liveOut[i*words:(i+1)*words] is the
// set of vregs read on some path after instruction i executes.
func liveSets(ir []irIns, nv int) (liveOut []uint64, words int) {
	n := len(ir)
	words = (nv + 63) / 64
	liveOut = make([]uint64, n*words)
	liveIn := make([]uint64, n*words)
	set := func(s []uint64, v int) { s[v/64] |= 1 << (v % 64) }
	for changedFlow := true; changedFlow; {
		changedFlow = false
		for i := n - 1; i >= 0; i-- {
			in := ir[i]
			out := liveOut[i*words : (i+1)*words]
			// Successors.
			merge := func(succ int) {
				if succ < 0 || succ >= n {
					return
				}
				src := liveIn[succ*words : (succ+1)*words]
				for w := range out {
					if out[w]|src[w] != out[w] {
						out[w] |= src[w]
						changedFlow = true
					}
				}
			}
			switch {
			case in.op == OpReturn:
			case in.op == OpJmp:
				merge(i + 1 + int(in.k))
			case isCondJump(in.op):
				merge(i + 1)
				merge(i + 1 + int(in.k))
			default:
				merge(i + 1)
			}
			// liveIn = (liveOut − def) ∪ use.
			inSet := liveIn[i*words : (i+1)*words]
			r := &ops[in.op]
			for w := range inSet {
				v := out[w]
				if r.writesDst {
					if dw := in.dst / 64; dw == w {
						v &^= 1 << (in.dst % 64)
					}
				}
				if v|inSet[w] != inSet[w] {
					inSet[w] |= v
					changedFlow = true
				}
			}
			if r.readsA && !bitSet(inSet, in.a) {
				set(inSet, in.a)
				changedFlow = true
			}
			if r.readsB && !bitSet(inSet, in.b) {
				set(inSet, in.b)
				changedFlow = true
			}
		}
	}
	return liveOut, words
}

// zeroCompareJumps rewrites fused compare-and-branch instructions whose
// one operand is a known constant zero into the single-operand
// zero-compare forms, freeing the constant's defining movimm to die.
func zeroCompareJumps(ir []irIns) bool {
	nv := maxVreg(ir)
	if nv == 0 {
		return false
	}
	gknown, gval := globalConsts(ir, nv)
	isZero := func(v int) bool { return v < nv && gknown[v] && gval[v] == 0 }
	changed := false
	for i := range ir {
		in := &ir[i]
		switch r := &ops[in.op]; {
		case r.zero == OpNop:
			// Not a two-register comparison.
		case isZero(in.b):
			in.op = r.zero
			changed = true
		case isZero(in.a):
			// 0 OP b ⇔ b OP' 0 with the comparison mirrored.
			in.a, in.op = in.b, ops[r.mirror].zero
			changed = true
		}
	}
	return changed
}

// deadDefs removes pure instructions whose destination is dead: never
// read on any path from the instruction (global backward liveness over
// the CFG).
func deadDefs(ir []irIns) bool {
	n := len(ir)
	nv := maxVreg(ir)
	if n == 0 || nv == 0 {
		return false
	}
	liveOut, words := liveSets(ir, nv)
	changed := false
	for i := range ir {
		in := &ir[i]
		r := &ops[in.op]
		if !r.writesDst || r.effect {
			continue
		}
		if !bitSet(liveOut[i*words:(i+1)*words], in.dst) {
			in.op, in.k = OpNop, 0
			changed = true
		}
	}
	return changed
}

// eliminateDead removes instructions that cannot execute (unreachable
// from entry) plus OpNops, rebuilding jump offsets.
func eliminateDead(ir []irIns) ([]irIns, bool) {
	n := len(ir)
	if n == 0 {
		return ir, false
	}
	reachable := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 || i >= n || reachable[i] {
			continue
		}
		reachable[i] = true
		in := ir[i]
		switch {
		case in.op == OpReturn:
			// No successors.
		case in.op == OpJmp:
			stack = append(stack, i+1+int(in.k))
		case isJump(in.op):
			stack = append(stack, i+1, i+1+int(in.k))
		default:
			stack = append(stack, i+1)
		}
	}
	// newIndex[i] is the compacted position of instruction i, or of the
	// next survivor when i is dropped: nops at a jump target compact to
	// the instruction after them.
	newIndex := make([]int, n+1)
	origin := make([]int, 0, n)
	for i := 0; i < n; i++ {
		newIndex[i] = len(origin)
		if reachable[i] && ir[i].op != OpNop {
			origin = append(origin, i)
		}
	}
	newIndex[n] = len(origin)
	if len(origin) == n {
		return ir, false
	}
	out := make([]irIns, len(origin))
	for pos, i := range origin {
		out[pos] = ir[i]
	}
	relocateJumps(origin, newIndex, func(pos int) *int64 {
		if isJump(out[pos].op) {
			return &out[pos].k
		}
		return nil
	})
	return out, true
}

// relocateJumps repairs the relative offsets of jumps that a rewrite
// moved: origin[pos] is the old index of the instruction now at pos (-1
// for inserted code, which holds no jumps), start[t] is where the code
// for old instruction t now begins (start[n] is the new end), and
// offset(pos) points at the K of a jump at pos and is nil otherwise.
func relocateJumps(origin, start []int, offset func(pos int) *int64) {
	for pos, i := range origin {
		if i < 0 {
			continue
		}
		if k := offset(pos); k != nil {
			*k = int64(start[i+1+int(*k)] - pos - 1)
		}
	}
}
