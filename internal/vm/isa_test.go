package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"progmp/internal/envtest"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

var edgeValues = []int64{0, 1, -1, 63, 64, math.MinInt64, math.MaxInt64}

// execR1 runs a hand-assembled program (plus a trailing return) on a
// bare environment and returns what it left in R1.
func execR1(t *testing.T, insns ...Instr) int64 {
	t.Helper()
	p := &Program{Insns: append(insns, Instr{Op: OpReturn}), SpecializedSubflows: -1}
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v\n%s", err, p.Disassemble())
	}
	env := &runtime.Env{Regs: new([runtime.NumRegisters]int64)}
	if err := p.Exec(env); err != nil {
		t.Fatalf("Exec: %v\n%s", err, p.Disassemble())
	}
	return env.Reg(0)
}

// TestOpTableMatchesExec ties the two statements of opcode semantics
// together: every fold and taken in the ISA table against Program.Exec,
// and the links of the relational families against each other.
func TestOpTableMatchesExec(t *testing.T) {
	for i := range ops {
		op, r := Op(i), &ops[i]
		for _, a := range edgeValues {
			for _, b := range edgeValues {
				load := []Instr{{Op: OpMovImm, Dst: 1, K: a}, {Op: OpMovImm, Dst: 2, K: b}}
				if r.fold != nil {
					got := execR1(t, append(load,
						Instr{Op: op, Dst: 0, A: 1, B: 2},
						Instr{Op: OpStoreReg, A: 0, K: 0})...)
					if want := r.fold(a, b); got != want {
						t.Errorf("%s(%d, %d): Exec computes %d, fold %d", op, a, b, got, want)
					}
				}
				if r.taken == nil {
					continue
				}
				// R1 stays 0 when the jump skips the movimm.
				got := execR1(t, append(load,
					Instr{Op: op, A: 1, B: 2, K: 1},
					Instr{Op: OpMovImm, Dst: 0, K: 1},
					Instr{Op: OpStoreReg, A: 0, K: 0})...) == 0
				if want := r.taken(a, b); got != want {
					t.Errorf("%s(%d, %d): Exec takes the jump: %v, taken: %v", op, a, b, got, want)
				}
				if ops[r.inv].taken(a, b) == got || ops[r.inv].inv != op {
					t.Errorf("%s(%d, %d): %s is not its inverse", op, a, b, r.inv)
				}
				if r.mirror != OpNop && ops[r.mirror].taken(b, a) != got {
					t.Errorf("%s(%d, %d): %s is not its mirror image", op, a, b, r.mirror)
				}
				if r.zero != OpNop && b == 0 && ops[r.zero].taken(a, 99) != got {
					t.Errorf("%s(%d, 0): %s is not its zero-compare form", op, a, r.zero)
				}
			}
		}
		if r.jump != OpNop {
			for _, a := range edgeValues {
				for _, b := range edgeValues {
					if (r.fold(a, b) != 0) != ops[r.jump].taken(a, b) {
						t.Errorf("%s(%d, %d): %s is not its fused jump", op, a, b, r.jump)
					}
				}
			}
		}
	}
	// The two environment-testing jumps have no taken; they are still
	// each other's inverse.
	if ops[OpJsbz].inv != OpJsbnz || ops[OpJsbnz].inv != OpJsbz {
		t.Error("jsbz and jsbnz are not linked as inverses")
	}
}

// The decision-site line rides in the padding between the operand
// bytes and K; growing an instruction past 16 B would cost every
// dispatch a wider load.
func TestInstrIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want 16", got)
	}
}

func TestEveryOpcodeHasARow(t *testing.T) {
	seen := map[string]Op{}
	for i := range ops {
		op, r := Op(i), &ops[i]
		if r.name == "" || r.format == "" || r.k == 0 {
			t.Errorf("opcode %d: incomplete row %q, shape %q, K-domain %d", i, r.name, r.format, r.k)
			continue
		}
		if prev, dup := seen[r.name]; dup {
			t.Errorf("opcodes %d and %d share the mnemonic %q", prev, i, r.name)
		}
		seen[r.name] = op
		if s := (Instr{Op: op, Dst: 1, A: 2, B: 3, K: 4}).String(); !strings.HasPrefix(s, r.name) || strings.Contains(s, "%!") {
			t.Errorf("%s disassembles as %q", r.name, s)
		}
		if isJump(op) && !r.effect {
			t.Errorf("%s: a jump must be marked as having an effect", op)
		}
	}
	for _, op := range []Op{opCount, 200, 255} {
		if err := Verify(&Program{Insns: []Instr{{Op: op}, {Op: OpReturn}}}); err == nil {
			t.Errorf("Verify accepted opcode %d", op)
		}
	}
	// The profiler's counter is legal only inside a Profile's copy.
	if err := Verify(&Program{Insns: []Instr{{Op: OpProfile}, {Op: OpReturn}}}); err == nil {
		t.Error("Verify accepted a profile counter in a plain program")
	}
}

// encodeProgram and decodeProgram define FuzzVerifier's wire format: a
// header (spill slots, specialization + 1), then per instruction the
// four byte-sized fields and K as a signed varint.
func encodeProgram(p *Program) []byte {
	buf := []byte{byte(p.SpillSlots), byte(p.SpecializedSubflows + 1)}
	for _, in := range p.Insns {
		buf = append(buf, byte(in.Op), in.Dst, in.A, in.B)
		buf = binary.AppendVarint(buf, in.K)
	}
	return buf
}

func decodeProgram(data []byte) *Program {
	if len(data) < 2 {
		return &Program{}
	}
	p := &Program{SpillSlots: int(data[0]), SpecializedSubflows: int(data[1]) - 1}
	for data = data[2:]; len(data) > 4; {
		k, n := binary.Varint(data[4:])
		if n <= 0 {
			break
		}
		p.Insns = append(p.Insns, Instr{Op: Op(data[0]), Dst: data[1], A: data[2], B: data[3], K: k})
		data = data[4+n:]
	}
	return p
}

// FuzzVerifier checks the verifier's soundness: whatever program Verify
// admits, Exec runs it against any environment without panicking and
// ends it normally, on the step budget, or by refusing the environment.
func FuzzVerifier(f *testing.F) {
	for _, src := range schedlib.All {
		info := mustInfo(f, src)
		for _, n := range []int{-1, 2} {
			p, err := Compile(info, Options{SubflowCount: n})
			if err != nil {
				f.Fatal(err)
			}
			if !bytes.Equal(encodeProgram(decodeProgram(encodeProgram(p))), encodeProgram(p)) {
				f.Fatal("wire format does not round-trip")
			}
			f.Add(encodeProgram(p), int64(n))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p := decodeProgram(data)
		if Verify(p) != nil {
			return
		}
		err := p.Exec(envtest.RandomEnv(rand.New(rand.NewSource(seed))))
		if err != nil && !errors.Is(err, ErrStepBudget) && !errors.Is(err, ErrSpecializationMismatch) {
			t.Fatalf("Exec of a verified program: %v\n%s", err, p.Disassemble())
		}
	})
}
