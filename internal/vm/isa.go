// Package vm implements the bytecode execution back-end for ProgMP
// scheduler programs — the Go analogue of the paper's in-kernel eBPF
// JIT ("alternative 3" in §4.1). The cross-compiler lowers the checked
// AST to a register-based 64-bit ISA, allocates physical registers with
// a second-chance-binpacking linear scan (Traub et al., PLDI 1998, as
// cited by the paper), verifies the result eBPF-style, and executes it
// in a threaded dispatch loop.
//
// All values are int64, as on an eBPF machine. Object references are
// encoded handles:
//
//   - subflow:  index into Env.SubflowViews + 1 (0 is NULL)
//   - packet:   (queueID+1)<<32 | (position in base queue + 1) (0 is NULL)
//   - subflow list: 64-bit membership mask over subflow indices
//   - queue:    filter chains are inlined statically; a queue-typed
//     variable reduces to its defining chain at compile time (legal
//     because variables are single-assignment and predicates are pure)
package vm

import (
	"fmt"
	"math/bits"
	"strings"

	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Dst/A/B address physical registers; K is an immediate whose
// meaning depends on the opcode (constant, ProgMP register index,
// property index, queue id, jump offset, or spill slot).
const (
	OpNop Op = iota

	// Moves and ALU.
	OpMovImm // dst = K
	OpMov    // dst = a
	OpAdd    // dst = a + b
	OpSub    // dst = a - b
	OpMul    // dst = a * b
	OpDiv    // dst = a / b (0 when b == 0: no exceptions by design)
	OpMod    // dst = a % b (0 when b == 0)
	OpNeg    // dst = -a
	OpNot    // dst = boolean !a (a is 0/1)

	// Comparisons produce 0/1.
	OpEq // dst = a == b
	OpNe // dst = a != b
	OpLt // dst = a < b
	OpLe // dst = a <= b
	OpGt // dst = a > b
	OpGe // dst = a >= b

	// Bit operations (used for subflow-list masks).
	OpPopcnt  // dst = popcount(a)
	OpBitSet  // dst = a | (1 << b)
	OpBitTest // dst = (a >> b) & 1

	// Control flow. Jump offsets in K are relative to the next
	// instruction (pc += K after increment).
	OpJmp    // pc += K
	OpJz     // if a == 0: pc += K
	OpJnz    // if a != 0: pc += K
	OpReturn // halt

	// ProgMP register file (R1..R8).
	OpLoadReg  // dst = Regs[K]
	OpStoreReg // Regs[K] = a

	// Shared global register file (G1..G8), execution-local copy.
	OpLoadGlobal  // dst = Globals[K]
	OpStoreGlobal // Globals[K] = a (marks the register dirty for publication)

	// Environment queries.
	OpSbfCount    // dst = number of subflows
	OpSbfRef      // dst = subflow handle for index a (no bounds check; compiler guards)
	OpSbfIntProp  // dst = subflow(a).Ints[K]; 0 when a is NULL
	OpSbfBoolProp // dst = subflow(a).Bools[K]; 0 when a is NULL
	OpHasWnd      // dst = subflow(a).HasWindowFor(packet(b))
	OpPktProp     // dst = packet(a).Ints[K]; 0 when a is NULL
	OpSentOn      // dst = packet(a).SentOn(subflow(b))
	OpQNext       // dst = next visible position in queue K strictly after position a (start with a = -1); -1 when exhausted
	OpPktRef      // dst = packet handle for queue K, position a
	OpQSkipSent   // dst = position in queue K before its first packet not sent on subflow(a); -1 to skip nothing

	// Side effects (recorded in the action queue).
	OpPop  // pop packet(a) from queue K
	OpPush // push packet(b) on subflow(a)
	OpDrop // drop packet(a)

	// Spill traffic inserted by the register allocator.
	OpLoadSlot  // dst = spill[K]
	OpStoreSlot // spill[K] = a

	// Fused compare-and-branch, produced by the optimizer from a
	// comparison whose only consumer is the adjacent conditional jump
	// (the dominant pattern in compiled scheduler code: every FILTER
	// predicate, IF condition and loop bound lowers to compare+branch).
	OpJeq // if a == b: pc += K
	OpJne // if a != b: pc += K
	OpJlt // if a < b:  pc += K
	OpJle // if a <= b: pc += K
	OpJgt // if a > b:  pc += K
	OpJge // if a >= b: pc += K

	// Zero-compare branches, the immediate-free special case the
	// optimizer reaches for when one comparison operand is a known
	// constant zero (queue-scan exhaustion tests, NULL checks).
	OpJltz // if a < 0:  pc += K
	OpJlez // if a <= 0: pc += K
	OpJgtz // if a > 0:  pc += K
	OpJgez // if a >= 0: pc += K

	// Fused environment-test branches, emitted by the compiler's
	// branch-context condition codegen for the two hottest predicate
	// shapes in scheduler code: subflow boolean properties (THROTTLED,
	// BACKUP, CWND_AVAILABLE, ...) and subflow-mask membership tests.
	// For OpJsbz/OpJsbnz the B field is the property index, not a
	// register (K already carries the jump offset).
	OpJsbz  // if subflow(a) is NULL or !Bools[B]: pc += K
	OpJsbnz // if subflow(a) is non-NULL and Bools[B]: pc += K
	OpJbc   // if (a >> b) & 1 == 0: pc += K
	OpJbs   // if (a >> b) & 1 == 1: pc += K

	// Block-entry counter that Profile plants in its private copy of a
	// program; the compiler never emits it.
	OpProfile // blockHits[K]++

	opCount
)

// kDomain says what an instruction's K field holds, and so which values
// Verify admits there.
type kDomain uint8

const (
	kUnused  kDomain = iota + 1 // ignored
	kImm                        // any constant
	kJump                       // offset to an instruction of the program
	kReg                        // ProgMP register R1..R8
	kGlobal                     // global register G1..G8
	kSbfInt                     // subflow integer property
	kSbfBool                    // subflow boolean property
	kPktInt                     // packet integer property
	kQueue                      // queue id
	kSlot                       // spill slot
	kBlock                      // profile block counter

	kDomains
)

// kDomainNames word the verifier's range errors.
var kDomainNames = [kDomains]string{
	kJump: "jump target", kReg: "ProgMP register index", kGlobal: "global register index",
	kSbfInt: "subflow property", kSbfBool: "subflow bool property", kPktInt: "packet property",
	kQueue: "queue id", kSlot: "spill slot", kBlock: "profile block",
}

// admits reports whether k is a legal K for an instruction at pc of p.
func (d kDomain) admits(k int64, p *Program, pc int) bool {
	var limit int64
	switch d {
	case kUnused, kImm:
		return true
	case kJump:
		// An offset large enough to wrap the sum wraps it negative.
		k, limit = int64(pc)+1+k, int64(len(p.Insns))
	case kReg:
		limit = runtime.NumRegisters
	case kGlobal:
		limit = runtime.NumGlobals
	case kSbfInt:
		limit = int64(runtime.NumSubflowIntProps)
	case kSbfBool:
		limit = int64(runtime.NumSubflowBoolProps)
	case kPktInt:
		limit = int64(runtime.NumPacketIntProps)
	case kQueue:
		limit = int64(runtime.QueueReinject) + 1
	case kSlot:
		limit = int64(p.SpillSlots)
	case kBlock:
		limit = int64(len(p.blockHits))
	}
	return 0 <= k && k < limit
}

// shape is an instruction's operand layout: how it disassembles and
// which of Dst/A/B name registers. The format's arguments are
// (mnemonic, Dst, A, B, K).
type shape struct {
	format                    string
	writesDst, readsA, readsB bool
	// bIsProp marks B as a subflow boolean property index instead of a
	// register (K already carries the jump offset).
	bIsProp bool
}

var (
	shBare  = shape{format: "%[1]s"}
	shD     = shape{format: "%[1]s r%[2]d", writesDst: true}
	shDImm  = shape{format: "%[1]s r%[2]d, %[5]d", writesDst: true}
	shDA    = shape{format: "%[1]s r%[2]d, r%[3]d", writesDst: true, readsA: true}
	shDAB   = shape{format: "%[1]s r%[2]d, r%[3]d, r%[4]d", writesDst: true, readsA: true, readsB: true}
	shDAP   = shape{format: "%[1]s r%[2]d, r%[3]d, #%[5]d", writesDst: true, readsA: true}
	shDAQ   = shape{format: "%[1]s r%[2]d, r%[3]d, q%[5]d", writesDst: true, readsA: true}
	shLoad  = shape{format: "%[1]s r%[2]d, [%[5]d]", writesDst: true}
	shStore = shape{format: "%[1]s [%[5]d], r%[3]d", readsA: true}
	shA     = shape{format: "%[1]s r%[3]d", readsA: true}
	shAB    = shape{format: "%[1]s r%[3]d, r%[4]d", readsA: true, readsB: true}
	shAQ    = shape{format: "%[1]s r%[3]d, q%[5]d", readsA: true}
	shJ     = shape{format: "%[1]s %+[5]d"}
	shAJ    = shape{format: "%[1]s r%[3]d, %+[5]d", readsA: true}
	shABJ   = shape{format: "%[1]s r%[3]d, r%[4]d, %+[5]d", readsA: true, readsB: true}
	shAPJ   = shape{format: "%[1]s r%[3]d, #%[4]d, %+[5]d", readsA: true, bIsProp: true}
	shK     = shape{format: "%[1]s [%[5]d]"}
)

// opInfo is one row of the ISA table: everything the compiler, the
// optimizer, the register allocator, the verifier and the disassembler
// know about an opcode. Program.Exec is the one other statement of
// opcode semantics; TestOpTableMatchesExec holds the two together.
type opInfo struct {
	name string
	shape
	k kDomain
	// effect marks an op that does more than write Dst (actions, stores,
	// control flow); it survives a dead destination.
	effect bool
	// fold computes Dst from constant operands for pure ALU and bit ops;
	// an operand the shape does not read is passed as 0.
	fold func(a, b int64) int64
	// taken decides a conditional jump that tests registers only.
	taken func(a, b int64) bool
	// Links of a relational family; OpNop stands for "none".
	jump   Op // set-form comparison → fused jump taken when it holds
	inv    Op // conditional jump → jump on the complementary condition
	mirror Op // two-register jump → same test with A and B swapped
	zero   Op // two-register jump → single-operand form for B == 0
}

var ops = [opCount]opInfo{
	OpNop:    {name: "nop", shape: shBare, k: kUnused},
	OpMovImm: {name: "movimm", shape: shDImm, k: kImm},
	OpMov:    {name: "mov", shape: shDA, k: kUnused, fold: func(a, _ int64) int64 { return a }},
	OpAdd:    {name: "add", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 { return a + b }},
	OpSub:    {name: "sub", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 { return a - b }},
	OpMul:    {name: "mul", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 { return a * b }},
	OpDiv: {name: "div", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 {
		if b == 0 {
			return 0
		}
		return a / b
	}},
	OpMod: {name: "mod", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 {
		if b == 0 {
			return 0
		}
		return a % b
	}},
	OpNeg: {name: "neg", shape: shDA, k: kUnused, fold: func(a, _ int64) int64 { return -a }},
	OpNot: {name: "not", shape: shDA, k: kUnused, fold: func(a, _ int64) int64 { return b2i(a == 0) }},

	OpEq: {name: "eq", shape: shDAB, k: kUnused, jump: OpJeq, fold: func(a, b int64) int64 { return b2i(a == b) }},
	OpNe: {name: "ne", shape: shDAB, k: kUnused, jump: OpJne, fold: func(a, b int64) int64 { return b2i(a != b) }},
	OpLt: {name: "lt", shape: shDAB, k: kUnused, jump: OpJlt, fold: func(a, b int64) int64 { return b2i(a < b) }},
	OpLe: {name: "le", shape: shDAB, k: kUnused, jump: OpJle, fold: func(a, b int64) int64 { return b2i(a <= b) }},
	OpGt: {name: "gt", shape: shDAB, k: kUnused, jump: OpJgt, fold: func(a, b int64) int64 { return b2i(a > b) }},
	OpGe: {name: "ge", shape: shDAB, k: kUnused, jump: OpJge, fold: func(a, b int64) int64 { return b2i(a >= b) }},

	OpPopcnt:  {name: "popcnt", shape: shDA, k: kUnused, fold: func(a, _ int64) int64 { return int64(bits.OnesCount64(uint64(a))) }},
	OpBitSet:  {name: "bitset", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 { return a | int64(uint64(1)<<uint(b&63)) }},
	OpBitTest: {name: "bittest", shape: shDAB, k: kUnused, fold: func(a, b int64) int64 { return (a >> uint(b&63)) & 1 }},

	OpJmp:    {name: "jmp", shape: shJ, k: kJump, effect: true},
	OpJz:     {name: "jz", shape: shAJ, k: kJump, effect: true, inv: OpJnz, taken: func(a, _ int64) bool { return a == 0 }},
	OpJnz:    {name: "jnz", shape: shAJ, k: kJump, effect: true, inv: OpJz, taken: func(a, _ int64) bool { return a != 0 }},
	OpReturn: {name: "return", shape: shBare, k: kUnused, effect: true},

	OpLoadReg:     {name: "loadreg", shape: shLoad, k: kReg},
	OpStoreReg:    {name: "storereg", shape: shStore, k: kReg, effect: true},
	OpLoadGlobal:  {name: "loadglobal", shape: shLoad, k: kGlobal},
	OpStoreGlobal: {name: "storeglobal", shape: shStore, k: kGlobal, effect: true},

	OpSbfCount: {name: "sbfcount", shape: shD, k: kUnused},
	// The handle encoding is pure arithmetic (index + 1), so a constant
	// index — the unrolled-loop case — folds entirely.
	OpSbfRef:      {name: "sbfref", shape: shDA, k: kUnused, fold: func(a, _ int64) int64 { return a + 1 }},
	OpSbfIntProp:  {name: "sbfprop", shape: shDAP, k: kSbfInt},
	OpSbfBoolProp: {name: "sbfbool", shape: shDAP, k: kSbfBool},
	OpHasWnd:      {name: "haswnd", shape: shDAB, k: kUnused},
	OpPktProp:     {name: "pktprop", shape: shDAP, k: kPktInt},
	OpSentOn:      {name: "senton", shape: shDAB, k: kUnused},
	OpQNext:       {name: "qnext", shape: shDAQ, k: kQueue},
	OpPktRef:      {name: "pktref", shape: shDAQ, k: kQueue},
	OpQSkipSent:   {name: "qskipsent", shape: shDAQ, k: kQueue},

	OpPop:  {name: "pop", shape: shAQ, k: kQueue, effect: true},
	OpPush: {name: "push", shape: shAB, k: kUnused, effect: true},
	OpDrop: {name: "drop", shape: shA, k: kUnused, effect: true},

	OpLoadSlot:  {name: "loadslot", shape: shLoad, k: kSlot},
	OpStoreSlot: {name: "storeslot", shape: shStore, k: kSlot, effect: true},

	OpJeq: {name: "jeq", shape: shABJ, k: kJump, effect: true, inv: OpJne, mirror: OpJeq, zero: OpJz, taken: func(a, b int64) bool { return a == b }},
	OpJne: {name: "jne", shape: shABJ, k: kJump, effect: true, inv: OpJeq, mirror: OpJne, zero: OpJnz, taken: func(a, b int64) bool { return a != b }},
	OpJlt: {name: "jlt", shape: shABJ, k: kJump, effect: true, inv: OpJge, mirror: OpJgt, zero: OpJltz, taken: func(a, b int64) bool { return a < b }},
	OpJle: {name: "jle", shape: shABJ, k: kJump, effect: true, inv: OpJgt, mirror: OpJge, zero: OpJlez, taken: func(a, b int64) bool { return a <= b }},
	OpJgt: {name: "jgt", shape: shABJ, k: kJump, effect: true, inv: OpJle, mirror: OpJlt, zero: OpJgtz, taken: func(a, b int64) bool { return a > b }},
	OpJge: {name: "jge", shape: shABJ, k: kJump, effect: true, inv: OpJlt, mirror: OpJle, zero: OpJgez, taken: func(a, b int64) bool { return a >= b }},

	OpJltz: {name: "jltz", shape: shAJ, k: kJump, effect: true, inv: OpJgez, taken: func(a, _ int64) bool { return a < 0 }},
	OpJlez: {name: "jlez", shape: shAJ, k: kJump, effect: true, inv: OpJgtz, taken: func(a, _ int64) bool { return a <= 0 }},
	OpJgtz: {name: "jgtz", shape: shAJ, k: kJump, effect: true, inv: OpJlez, taken: func(a, _ int64) bool { return a > 0 }},
	OpJgez: {name: "jgez", shape: shAJ, k: kJump, effect: true, inv: OpJltz, taken: func(a, _ int64) bool { return a >= 0 }},

	OpJsbz:  {name: "jsbz", shape: shAPJ, k: kJump, effect: true, inv: OpJsbnz},
	OpJsbnz: {name: "jsbnz", shape: shAPJ, k: kJump, effect: true, inv: OpJsbz},
	OpJbc:   {name: "jbc", shape: shABJ, k: kJump, effect: true, inv: OpJbs, taken: func(a, b int64) bool { return (a>>uint(b&63))&1 == 0 }},
	OpJbs:   {name: "jbs", shape: shABJ, k: kJump, effect: true, inv: OpJbc, taken: func(a, b int64) bool { return (a>>uint(b&63))&1 != 0 }},

	OpProfile: {name: "profile", shape: shK, k: kBlock, effect: true},
}

// isJump reports whether the op transfers control via K. It is asked
// about unverified bytecode too, where what is no opcode is no jump.
func isJump(op Op) bool { return op < opCount && ops[op].k == kJump }

// isCondJump reports a jump with a fall-through successor.
func isCondJump(op Op) bool { return isJump(op) && op != OpJmp }

// String returns the opcode mnemonic.
func (op Op) String() string {
	if op < opCount {
		return ops[op].name
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Instr is one fixed-width instruction. Line is the source line of a
// PUSH, POP or DROP, which Exec stamps as the action's decision site;
// it rides in what would otherwise be padding, so an Instr stays 16 B.
type Instr struct {
	Op   Op
	Dst  uint8
	A, B uint8
	Line int32
	K    int64
}

// String disassembles the instruction.
func (in Instr) String() string {
	format := "%s r%d, r%d, r%d, %d"
	if in.Op < opCount {
		format = ops[in.Op].format
	}
	return fmt.Sprintf(format, in.Op, in.Dst, in.A, in.B, in.K)
}

// NumPhysRegs is the size of the physical register file. Two registers
// are reserved by the allocator as spill scratch.
const NumPhysRegs = 16

// Program is a verified, executable bytecode program.
type Program struct {
	Insns      []Instr
	SpillSlots int
	// SpecializedSubflows is the constant subflow count this program
	// was specialized for, or -1 for the generic version (§4.1,
	// "constant subflow number" optimization).
	SpecializedSubflows int
	// StepCounter, when non-nil, accumulates executed instruction
	// counts (the "steps" metric). Left nil by default so the hot path
	// pays only an inlined nil check at exit.
	StepCounter *obs.Counter
	// blockHits is where OpProfile counts; nil outside a Profile's copy.
	blockHits []uint64
}

// Disassemble renders the program, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.Insns {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}
