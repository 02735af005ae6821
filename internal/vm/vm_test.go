package vm

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"progmp/internal/compile"
	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

func mustInfo(t testing.TB, src string) *types.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return info
}

func compileGeneric(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(mustInfo(t, src), Options{SubflowCount: -1})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

const minRTTSrc = `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
	SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
}`

func TestVMMinRTT(t *testing.T) {
	p := compileGeneric(t, minRTTSrc)
	env := envtest.TwoSubflowEnv(2)
	if err := p.Exec(env); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if envtest.PushCount(env) != 1 {
		t.Fatalf("push count = %d, want 1\n%s", envtest.PushCount(env), p.Disassemble())
	}
	if env.Actions[1].Subflow != env.SubflowViews[0].Handle {
		t.Errorf("pushed on wrong subflow\n%s", p.Disassemble())
	}
}

func TestVMRegisterStatePersists(t *testing.T) {
	p := compileGeneric(t, `SET(R1, R1 + 1); SET(R2, R1 * 10);`)
	env := envtest.TwoSubflowEnv(0)
	for i := 0; i < 3; i++ {
		if err := p.Exec(env); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	if env.Reg(0) != 3 || env.Reg(1) != 30 {
		t.Errorf("R1=%d R2=%d, want 3 and 30", env.Reg(0), env.Reg(1))
	}
}

func TestVMSpecializationMismatch(t *testing.T) {
	p, err := Compile(mustInfo(t, minRTTSrc), Options{SubflowCount: 4})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	env := envtest.TwoSubflowEnv(1) // 2 subflows, not 4
	if err := p.Exec(env); !errors.Is(err, ErrSpecializationMismatch) {
		t.Fatalf("Exec = %v, want ErrSpecializationMismatch", err)
	}
}

func TestVMSpecializedMatchesGeneric(t *testing.T) {
	srcs := []string{
		minRTTSrc,
		`VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);
		IF (R1 >= sbfs.COUNT) { SET(R1, 0); }
		IF (!Q.EMPTY) {
			VAR sbf = sbfs.GET(R1);
			IF (sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED) { sbf.PUSH(Q.POP()); }
			SET(R1, R1 + 1);
		}`,
		`IF (!Q.EMPTY) {
			VAR skb = Q.POP();
			FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }
		}`,
	}
	for _, src := range srcs {
		info := mustInfo(t, src)
		generic, err := Compile(info, Options{SubflowCount: -1})
		if err != nil {
			t.Fatalf("Compile generic: %v", err)
		}
		special, err := Compile(info, Options{SubflowCount: 2})
		if err != nil {
			t.Fatalf("Compile specialized: %v", err)
		}
		for seed := int64(0); seed < 20; seed++ {
			envA := envtest.TwoSubflowEnv(int(seed % 5))
			envB := envtest.TwoSubflowEnv(int(seed % 5))
			envA.Regs[0] = seed
			envB.Regs[0] = seed
			if err := generic.Exec(envA); err != nil {
				t.Fatalf("generic Exec: %v", err)
			}
			if err := special.Exec(envB); err != nil {
				t.Fatalf("specialized Exec: %v", err)
			}
			if !slices.Equal(envA.Actions, envB.Actions) {
				t.Fatalf("specialized diverges from generic:\n%s\ngeneric:     %v\nspecialized: %v", src, envA.Actions, envB.Actions)
			}
			if *envA.Regs != *envB.Regs {
				t.Fatalf("specialized register divergence on %s", src)
			}
		}
	}
}

func TestVMConstantFolding(t *testing.T) {
	p := compileGeneric(t, `SET(R1, 2 + 3 * 4);`)
	// The whole expression must fold into a single movimm.
	found := false
	for _, in := range p.Insns {
		switch in.Op {
		case OpAdd, OpMul:
			t.Errorf("constant expression not folded:\n%s", p.Disassemble())
		case OpMovImm:
			if in.K == 14 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("folded constant 14 not found:\n%s", p.Disassemble())
	}
}

func TestVMDisassembleStable(t *testing.T) {
	p := compileGeneric(t, minRTTSrc)
	d := p.Disassemble()
	if !strings.Contains(d, "qnext") || !strings.Contains(d, "push") || !strings.Contains(d, "return") {
		t.Errorf("disassembly missing expected mnemonics:\n%s", d)
	}
}

func TestVerifyRejectsCorruptPrograms(t *testing.T) {
	base := compileGeneric(t, minRTTSrc)
	tests := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"empty", func(p *Program) { p.Insns = nil }},
		{"no return", func(p *Program) { p.Insns = p.Insns[:len(p.Insns)-1] }},
		{"jump out of range", func(p *Program) {
			for i := range p.Insns {
				if p.Insns[i].Op == OpJz {
					p.Insns[i].K = 1 << 20
					return
				}
			}
			panic("no jump found")
		}},
		{"bad property", func(p *Program) {
			for i := range p.Insns {
				if p.Insns[i].Op == OpSbfIntProp {
					p.Insns[i].K = 99
					return
				}
			}
			panic("no property load found")
		}},
		{"bad queue", func(p *Program) {
			for i := range p.Insns {
				if p.Insns[i].Op == OpQNext {
					p.Insns[i].K = 7
					return
				}
			}
			panic("no qnext found")
		}},
		{"bad spill slot", func(p *Program) {
			p.Insns = append([]Instr{{Op: OpLoadSlot, Dst: 0, K: 3}}, p.Insns...)
		}},
		{"unknown opcode", func(p *Program) {
			p.Insns[0] = Instr{Op: Op(200)}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			clone := &Program{
				Insns:               append([]Instr(nil), base.Insns...),
				SpillSlots:          base.SpillSlots,
				SpecializedSubflows: base.SpecializedSubflows,
			}
			tc.mutate(clone)
			if err := Verify(clone); err == nil {
				t.Errorf("Verify accepted a corrupt program")
			}
		})
	}
}

// Regression: a program can end in OpReturn and still trap execution
// in a jump cycle the return never post-dominates. Verify must reject
// any reachable instruction with no path to a return.
func TestVerifyRejectsReturnlessCycle(t *testing.T) {
	trapped := &Program{Insns: []Instr{
		{Op: OpMovImm, Dst: 0, K: 1},
		{Op: OpJmp, K: -1}, // jumps back to the movimm forever
		{Op: OpReturn},     // syntactically present, never reachable as an exit
	}}
	err := Verify(trapped)
	if !errors.Is(err, ErrNoTermination) {
		t.Fatalf("Verify = %v, want ErrNoTermination", err)
	}

	// A conditional escape from the cycle makes the same shape legal:
	// loops are allowed, only return-free traps are not.
	escapable := &Program{Insns: []Instr{
		{Op: OpMovImm, Dst: 0, K: 1},
		{Op: OpJz, A: 0, K: -1},
		{Op: OpReturn},
	}}
	if err := Verify(escapable); err != nil {
		t.Fatalf("Verify rejected an escapable loop: %v", err)
	}

	// An unreachable cycle is dead code, not a trap.
	deadCycle := &Program{Insns: []Instr{
		{Op: OpJmp, K: 2},
		{Op: OpJmp, K: -1},
		{Op: OpJmp, K: -2},
		{Op: OpReturn},
	}}
	if err := Verify(deadCycle); err != nil {
		t.Fatalf("Verify rejected a program with an unreachable cycle: %v", err)
	}
}

func TestVMSpillPressure(t *testing.T) {
	// Build an expression wide enough to exceed 14 allocatable
	// registers so the allocator must spill; semantics must hold.
	var sb strings.Builder
	sb.WriteString("SET(R1, ")
	// A deep left-leaning sum keeps many intermediates alive at once
	// only with parentheses on the right side.
	sum := "1"
	for i := 2; i <= 40; i++ {
		sum = "(" + sum + " + " + itoa(i) + ")"
	}
	// Nest differently to lengthen live ranges: (a*(b+(c*(d+...))))
	expr := "1"
	for i := 2; i <= 30; i++ {
		expr = "(" + itoa(i) + " + (" + expr + " * 2))"
	}
	sb.WriteString(sum + " + " + expr)
	sb.WriteString(");")
	info := mustInfo(t, sb.String())

	// Constant folding would erase the pressure; verify against the
	// interpreter result rather than structure.
	p, err := Compile(info, Options{SubflowCount: -1})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	envA := envtest.TwoSubflowEnv(0)
	envB := envtest.TwoSubflowEnv(0)
	interp.New(info).Exec(envA)
	if err := p.Exec(envB); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if envA.Reg(0) != envB.Reg(0) {
		t.Fatalf("spilled program wrong: vm R1=%d, interp R1=%d", envB.Reg(0), envA.Reg(0))
	}
}

func itoa(i int) string {
	return lang.FormatExpr(&lang.NumberLit{Val: int64(i)})
}

// TestDifferentialThreeWay drives random programs through all three
// back-ends and requires identical actions and registers.
func TestDifferentialThreeWay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 700; i++ {
		src := envtest.GenProgram(rng)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("generated program does not check: %v\n%s", err, src)
		}
		vmProg, err := Compile(info, Options{SubflowCount: -1})
		if err != nil {
			t.Fatalf("vm compile failed: %v\n%s", err, src)
		}
		seed := rng.Int63()
		envI := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
		envC := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
		envV := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
		interp.New(info).Exec(envI)
		compile.New(info).Exec(envC)
		if err := vmProg.Exec(envV); err != nil {
			t.Fatalf("vm exec failed: %v\n%s", err, src)
		}
		if !actionsEquivalent(envI, envV) {
			t.Fatalf("vm diverges from interpreter on:\n%s\ninterp: %v\nvm:     %v\n%s", src, envI.Actions, envV.Actions, vmProg.Disassemble())
		}
		if !reflect.DeepEqual(envI.Actions, envC.Actions) {
			t.Fatalf("compiled closures diverge from interpreter on:\n%s", src)
		}
		if *envI.Regs != *envV.Regs {
			t.Fatalf("vm register divergence on:\n%s\ninterp: %v\nvm:     %v", src, *envI.Regs, *envV.Regs)
		}
		if *envI.Globals != *envV.Globals || envI.DirtyGlobals() != envV.DirtyGlobals() {
			t.Fatalf("vm global divergence on:\n%s\ninterp: %v (dirty %b)\nvm:     %v (dirty %b)",
				src, *envI.Globals, envI.DirtyGlobals(), *envV.Globals, envV.DirtyGlobals())
		}
		if *envI.Globals != *envC.Globals || envI.DirtyGlobals() != envC.DirtyGlobals() {
			t.Fatalf("compiled closures global divergence on:\n%s", src)
		}
	}
}

// actionsEquivalent compares action queues. The VM records the same
// actions in the same order; handles must match exactly because both
// sides read the same envtest-built snapshots, and so must decision
// sites, which every back-end stamps as the source line.
func actionsEquivalent(a, b *runtime.Env) bool {
	return slices.Equal(a.Actions, b.Actions)
}

func TestVerifyQueueIDs(t *testing.T) {
	// Every queue-id-carrying opcode must reject ids beyond RQ and
	// negative ids, mirroring the eBPF loader's bounds discipline.
	mk := func(insns ...Instr) *Program {
		return &Program{Insns: append(insns, Instr{Op: OpReturn}), SpecializedSubflows: -1}
	}
	for _, op := range []Op{OpQNext, OpPktRef, OpPop} {
		if err := Verify(mk(Instr{Op: op, K: int64(runtime.QueueReinject) + 1})); err == nil {
			t.Errorf("%s: Verify accepted an out-of-range queue id", op)
		}
		if err := Verify(mk(Instr{Op: op, K: -1})); err == nil {
			t.Errorf("%s: Verify accepted a negative queue id", op)
		}
		if err := Verify(mk(Instr{Op: op, K: int64(runtime.QueueReinject)})); err != nil {
			t.Errorf("%s: Verify rejected a valid queue id: %v", op, err)
		}
	}
}

func TestVerifyFusedBranches(t *testing.T) {
	mk := func(insns ...Instr) *Program {
		return &Program{Insns: append(insns, Instr{Op: OpReturn}), SpecializedSubflows: -1}
	}
	fused := []Op{OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge,
		OpJltz, OpJlez, OpJgtz, OpJgez, OpJsbz, OpJsbnz, OpJbc, OpJbs}
	for _, op := range fused {
		if err := Verify(mk(Instr{Op: op, K: 99})); err == nil {
			t.Errorf("%s: Verify accepted an out-of-range jump target", op)
		}
		if err := Verify(mk(Instr{Op: op, K: -2})); err == nil {
			t.Errorf("%s: Verify accepted a jump before the program start", op)
		}
		if err := Verify(mk(Instr{Op: op, K: 0})); err != nil {
			t.Errorf("%s: Verify rejected a valid jump: %v", op, err)
		}
	}
	// OpJsbz/OpJsbnz carry a subflow bool property index in B.
	for _, op := range []Op{OpJsbz, OpJsbnz} {
		bad := mk(Instr{Op: op, B: uint8(runtime.NumSubflowBoolProps), K: 0})
		if err := Verify(bad); err == nil {
			t.Errorf("%s: Verify accepted an out-of-range property index", op)
		}
	}
}

func TestVMNilQueueReadsAsExhausted(t *testing.T) {
	// Hand-assembled program (bypassing the compiler, whose queue ids
	// are always valid): qnext against an environment whose queues are
	// unbound must read as exhausted (-1), never crash. A bare Env has
	// nil queue views, the harshest case the guard must absorb.
	p := &Program{
		Insns: []Instr{
			{Op: OpMovImm, Dst: 0, K: -1},
			{Op: OpQNext, Dst: 1, A: 0, K: int64(runtime.QueueSend)},
			{Op: OpStoreReg, A: 1, K: 0},
			{Op: OpReturn},
		},
		SpecializedSubflows: -1,
	}
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	env := &runtime.Env{Regs: new([runtime.NumRegisters]int64)}
	env.Regs[0] = 77
	if err := p.Exec(env); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if got := env.Reg(0); got != -1 {
		t.Errorf("qnext on a nil queue stored %d, want -1", got)
	}
}
