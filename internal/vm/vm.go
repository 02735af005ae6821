package vm

import (
	"errors"
	"fmt"
	"math/bits"

	"progmp/internal/runtime"
)

// Execution errors.
var (
	// ErrSpecializationMismatch reports running a program specialized
	// for a constant subflow count against a different environment.
	// Callers fall back to the generic program (§4.1).
	ErrSpecializationMismatch = errors.New("vm: subflow count does not match specialization")
	// ErrStepBudget reports that an execution exceeded the step budget.
	// The programming model permits loops, so the VM bounds runtime
	// instead of rejecting loops at load time.
	ErrStepBudget = errors.New("vm: step budget exhausted")
)

// MaxSteps bounds one execution. Real schedulers run a few hundred
// instructions; the budget only exists to contain pathological
// programs, mirroring the isolation duty of the kernel runtime.
const MaxSteps = 1 << 22

// spillStackSlots is the spill count served from a stack buffer; real
// scheduler programs spill a handful of values at most, so steady-state
// execution allocates nothing.
const spillStackSlots = 16

// Exec runs one scheduler execution of p against env.
//
// The step budget is enforced on taken backward jumps only: the program
// counter otherwise increases monotonically, so a forward-only stretch
// is bounded by the program length and a loop must pass through a
// backward jump on every iteration. This keeps the budget exact to
// within one pass over the program while removing a compare from every
// dispatched instruction.
//
//progmp:hotpath
//progmp:deterministic
func (p *Program) Exec(env *runtime.Env) error {
	if p.SpecializedSubflows >= 0 && len(env.SubflowViews) != p.SpecializedSubflows {
		return ErrSpecializationMismatch
	}
	if len(env.SubflowViews) > runtime.MaxSubflows {
		//progmp:ignore hotpath cold rejection path, never taken in steady state
		return fmt.Errorf("vm: %d subflows exceed the supported maximum %d", len(env.SubflowViews), runtime.MaxSubflows)
	}
	var regs [NumPhysRegs]int64
	var spillBuf [spillStackSlots]int64
	var spills []int64
	if p.SpillSlots > 0 {
		if p.SpillSlots <= spillStackSlots {
			spills = spillBuf[:p.SpillSlots]
		} else {
			//progmp:ignore hotpath cold path: real programs spill <= spillStackSlots values
			spills = make([]int64, p.SpillSlots)
		}
	}
	insns := p.Insns
	steps := 0
	for pc := 0; pc < len(insns); pc++ {
		steps++
		in := &insns[pc]
		switch in.Op {
		case OpNop:
		case OpMovImm:
			regs[in.Dst] = in.K
		case OpMov:
			regs[in.Dst] = regs[in.A]
		case OpAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case OpSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case OpMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case OpDiv:
			if regs[in.B] == 0 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = regs[in.A] / regs[in.B]
			}
		case OpMod:
			if regs[in.B] == 0 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = regs[in.A] % regs[in.B]
			}
		case OpNeg:
			regs[in.Dst] = -regs[in.A]
		case OpNot:
			regs[in.Dst] = b2i(regs[in.A] == 0)
		case OpEq:
			regs[in.Dst] = b2i(regs[in.A] == regs[in.B])
		case OpNe:
			regs[in.Dst] = b2i(regs[in.A] != regs[in.B])
		case OpLt:
			regs[in.Dst] = b2i(regs[in.A] < regs[in.B])
		case OpLe:
			regs[in.Dst] = b2i(regs[in.A] <= regs[in.B])
		case OpGt:
			regs[in.Dst] = b2i(regs[in.A] > regs[in.B])
		case OpGe:
			regs[in.Dst] = b2i(regs[in.A] >= regs[in.B])
		case OpPopcnt:
			regs[in.Dst] = int64(bits.OnesCount64(uint64(regs[in.A])))
		case OpBitSet:
			regs[in.Dst] = regs[in.A] | int64(uint64(1)<<uint(regs[in.B]&63))
		case OpBitTest:
			regs[in.Dst] = (regs[in.A] >> uint(regs[in.B]&63)) & 1
		case OpJmp:
			pc += int(in.K)
			if in.K < 0 && steps > MaxSteps {
				goto budget
			}
		case OpJz:
			if regs[in.A] == 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJnz:
			if regs[in.A] != 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJeq:
			if regs[in.A] == regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJne:
			if regs[in.A] != regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJlt:
			if regs[in.A] < regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJle:
			if regs[in.A] <= regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJgt:
			if regs[in.A] > regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJge:
			if regs[in.A] >= regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJltz:
			if regs[in.A] < 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJlez:
			if regs[in.A] <= 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJgtz:
			if regs[in.A] > 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJgez:
			if regs[in.A] >= 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJsbz:
			// A NULL subflow reads every property as false, matching
			// OpSbfBoolProp's graceful-NULL semantics.
			if sbf := sbfView(env, regs[in.A]); sbf == nil || !sbf.Bools[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJsbnz:
			if sbf := sbfView(env, regs[in.A]); sbf != nil && sbf.Bools[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJbc:
			if (regs[in.A]>>uint(regs[in.B]&63))&1 == 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJbs:
			if (regs[in.A]>>uint(regs[in.B]&63))&1 != 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpReturn:
			p.StepCounter.Add(int64(steps))
			return nil
		case OpLoadReg:
			regs[in.Dst] = env.Reg(int(in.K))
		case OpStoreReg:
			env.SetReg(int(in.K), regs[in.A])
		case OpLoadGlobal:
			regs[in.Dst] = env.Global(int(in.K))
		case OpStoreGlobal:
			env.SetGlobal(int(in.K), regs[in.A])
		case OpSbfCount:
			regs[in.Dst] = int64(len(env.SubflowViews))
		case OpSbfRef:
			regs[in.Dst] = regs[in.A] + 1
		case OpSbfIntProp:
			if sbf := sbfView(env, regs[in.A]); sbf != nil {
				regs[in.Dst] = sbf.Ints[in.K]
			} else {
				regs[in.Dst] = 0
			}
		case OpSbfBoolProp:
			if sbf := sbfView(env, regs[in.A]); sbf != nil {
				regs[in.Dst] = b2i(sbf.Bools[in.K])
			} else {
				regs[in.Dst] = 0
			}
		case OpHasWnd:
			regs[in.Dst] = b2i(sbfView(env, regs[in.A]).HasWindowFor(pktView(env, regs[in.B])))
		case OpPktProp:
			if p := pktView(env, regs[in.A]); p != nil {
				regs[in.Dst] = p.Ints[in.K]
			} else {
				regs[in.Dst] = 0
			}
		case OpSentOn:
			regs[in.Dst] = b2i(pktView(env, regs[in.A]).SentOn(sbfView(env, regs[in.B])))
		case OpQNext:
			// The verifier rejects out-of-range queue ids, but guard the
			// lookup anyway: hand-assembled programs bypass Verify, and a
			// nil queue must read as exhausted (-1), not crash the VM.
			if q := env.Queue(runtime.QueueID(in.K)); q != nil {
				regs[in.Dst] = int64(q.NextVisible(int(regs[in.A])))
			} else {
				regs[in.Dst] = -1
			}
		case OpPktRef:
			regs[in.Dst] = (in.K+1)<<32 | (regs[in.A] + 1)
		case OpQSkipSent:
			if q := env.Queue(runtime.QueueID(in.K)); q != nil {
				regs[in.Dst] = int64(q.SkipSent(sbfView(env, regs[in.A])))
			} else {
				regs[in.Dst] = -1
			}
		case OpPop:
			env.Site = in.Line
			env.Pop(runtime.QueueID(in.K), pktView(env, regs[in.A]))
		case OpPush:
			env.Site = in.Line
			env.Push(sbfView(env, regs[in.A]), pktView(env, regs[in.B]))
		case OpDrop:
			env.Site = in.Line
			env.Drop(pktView(env, regs[in.A]))
		case OpLoadSlot:
			regs[in.Dst] = spills[in.K]
		case OpStoreSlot:
			spills[in.K] = regs[in.A]
		case OpProfile:
			// Planted by Profile at block entries and not part of the
			// profiled program, so it is not charged as a step.
			p.blockHits[in.K]++
			steps--
		default:
			// Credit the executed steps before failing: the steps metric
			// must account for every dispatched instruction, including
			// the one that faulted.
			p.StepCounter.Add(int64(steps))
			//progmp:ignore hotpath cold fault path: verified programs never reach an invalid opcode
			return fmt.Errorf("vm: invalid opcode %d at pc %d", int(in.Op), pc)
		}
	}
	p.StepCounter.Add(int64(steps))
	return nil
budget:
	p.StepCounter.Add(int64(steps))
	return ErrStepBudget
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sbfView decodes a subflow handle (index+1; 0 = NULL).
func sbfView(env *runtime.Env, h int64) *runtime.SubflowView {
	if h <= 0 || h > int64(len(env.SubflowViews)) {
		return nil
	}
	return env.SubflowViews[h-1]
}

// pktView decodes a packet handle ((queue+1)<<32 | position+1; 0 = NULL).
func pktView(env *runtime.Env, h int64) *runtime.PacketView {
	if h <= 0 {
		return nil
	}
	q := env.Queue(runtime.QueueID((h >> 32) - 1))
	if q == nil {
		return nil
	}
	return q.At(int(h&0xffffffff) - 1)
}
