package vm

import (
	"errors"
	"fmt"
)

// Verification errors.
var (
	ErrEmptyProgram = errors.New("empty program")
	ErrNoReturn     = errors.New("program does not end with return")
	// ErrNoTermination is returned when some reachable instruction has
	// no control-flow path to an OpReturn: execution entering it can
	// only leave via the step budget, never by terminating.
	ErrNoTermination = errors.New("reachable code has no path to a return instruction")
)

// Verify checks a program the way the eBPF loader would before
// admitting it into the kernel: structural validity of every
// instruction, jump targets inside the program, register and slot
// indices in range, and property/queue indices valid. Unlike eBPF,
// loops are permitted (§6: "While eBPF does not support loops to
// ensure termination, our programming model allows FOREACH loops");
// termination is enforced by the interpreter's step budget instead.
func Verify(p *Program) error {
	n := len(p.Insns)
	if n == 0 {
		return ErrEmptyProgram
	}
	if p.Insns[n-1].Op != OpReturn {
		return ErrNoReturn
	}
	for i, in := range p.Insns {
		if in.Op >= opCount {
			return fmt.Errorf("instruction %d: unknown opcode %d", i, int(in.Op))
		}
		r := &ops[in.Op]
		if r.readsA && int(in.A) >= NumPhysRegs {
			return fmt.Errorf("instruction %d (%s): source register A out of range", i, in)
		}
		if r.readsB && int(in.B) >= NumPhysRegs {
			return fmt.Errorf("instruction %d (%s): source register B out of range", i, in)
		}
		if r.writesDst && int(in.Dst) >= NumPhysRegs {
			return fmt.Errorf("instruction %d (%s): destination register out of range", i, in)
		}
		if r.bIsProp && !kSbfBool.admits(int64(in.B), p, i) {
			return fmt.Errorf("instruction %d (%s): %s out of range", i, in, kDomainNames[kSbfBool])
		}
		if !r.k.admits(in.K, p, i) {
			return fmt.Errorf("instruction %d (%s): %s out of range", i, in, kDomainNames[r.k])
		}
	}
	return verifyTermination(p)
}

// verifyTermination checks that every instruction reachable from entry
// has a control-flow path to an OpReturn. The trailing-return check
// above is not enough: a program whose last instruction is OpReturn
// can still trap execution in a jump cycle that the return never
// post-dominates (e.g. `movimm; jmp -1; return`). Forward
// reachability from instruction 0 then backward reachability from the
// reachable returns finds any such trap.
func verifyTermination(p *Program) error {
	n := len(p.Insns)

	// succs lists instruction i's control-flow successors. OpReturn
	// halts; OpJmp transfers unconditionally; conditional jumps fall
	// through or take the target.
	succs := func(i int) []int {
		in := p.Insns[i]
		switch in.Op {
		case OpReturn:
			return nil
		case OpJmp:
			return []int{i + 1 + int(in.K)}
		}
		if isJump(in.Op) {
			return []int{i + 1, i + 1 + int(in.K)}
		}
		if i+1 < n {
			return []int{i + 1}
		}
		return nil
	}

	reachable := make([]bool, n)
	stack := []int{0}
	reachable[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs(i) {
			if !reachable[s] {
				reachable[s] = true
				stack = append(stack, s)
			}
		}
	}

	// Backward reachability from every reachable return, over the
	// reversed edges.
	preds := make([][]int32, n)
	for i := 0; i < n; i++ {
		if !reachable[i] {
			continue
		}
		for _, s := range succs(i) {
			preds[s] = append(preds[s], int32(i))
		}
	}
	reaches := make([]bool, n)
	for i := 0; i < n; i++ {
		if reachable[i] && p.Insns[i].Op == OpReturn {
			reaches[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pr := range preds[i] {
			if !reaches[pr] {
				reaches[pr] = true
				stack = append(stack, int(pr))
			}
		}
	}

	for i := 0; i < n; i++ {
		if reachable[i] && !reaches[i] {
			return fmt.Errorf("instruction %d (%s): %w", i, p.Insns[i], ErrNoTermination)
		}
	}
	return nil
}
