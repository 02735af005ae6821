package vm

import (
	"fmt"
	"sort"
	"strings"

	"progmp/internal/runtime"
)

// Profile is the result of counting executions: per-instruction hit
// counts over one or more runs — the analogue of the paper's proc-based
// "performance profiling traces based on the control flow
// representation of the scheduler specification" (§4.1). Counts are
// taken per basic block, which is exact: a block is entered at its
// first instruction only and left after its last.
type Profile struct {
	prog *Program
	// counted is prog with an OpProfile in front of every basic block.
	// Program.Exec runs it, so profiled and plain execution cannot
	// differ.
	counted *Program
	// block maps a pc of prog to its counter.
	block []int
	// Hits[i] counts executions of instruction i.
	Hits []uint64
	// Steps is the total number of executed instructions.
	Steps uint64
	// Runs counts accumulated executions.
	Runs int
}

// NewProfile prepares a profile collector for p.
func NewProfile(p *Program) *Profile {
	n := len(p.Insns)
	ir := make([]irIns, n)
	for i, in := range p.Insns {
		ir[i] = irIns{op: in.Op, k: in.K}
	}
	leader := blockLeaders(ir)
	pr := &Profile{prog: p, block: make([]int, n), Hits: make([]uint64, n)}
	start := make([]int, n+1)
	// origin maps a pc of the counted code to the pc of the same
	// instruction in p (-1 at a counter).
	var origin []int
	var code []Instr
	blocks := 0
	for i, in := range p.Insns {
		start[i] = len(code)
		if leader[i] {
			code = append(code, Instr{Op: OpProfile, K: int64(blocks)})
			origin = append(origin, -1)
			blocks++
		}
		pr.block[i] = blocks - 1
		code = append(code, in)
		origin = append(origin, i)
	}
	start[n] = len(code)
	relocateJumps(origin, start, jumpOffsets(code))
	counted := *p
	counted.Insns, counted.StepCounter, counted.blockHits = code, nil, make([]uint64, blocks)
	pr.counted = &counted
	return pr
}

// ExecProfile runs one execution of p against env, accumulating
// per-instruction counts. The counters cost time, so it is meant for
// development, not the data path.
func (pr *Profile) ExecProfile(env *runtime.Env) error {
	err := pr.counted.Exec(env)
	pr.Steps = 0
	for i := range pr.Hits {
		pr.Hits[i] = pr.counted.blockHits[pr.block[i]]
		pr.Steps += pr.Hits[i]
	}
	if err == nil {
		pr.Runs++
	}
	return err
}

// Report renders the profile: every instruction annotated with its hit
// count, followed by the hottest instructions.
func (pr *Profile) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d run(s), %d instructions executed (%.1f per run)\n",
		pr.Runs, pr.Steps, float64(pr.Steps)/float64(max(1, pr.Runs)))
	for i, in := range pr.prog.Insns {
		fmt.Fprintf(&b, "%10d  %4d: %s\n", pr.Hits[i], i, in)
	}
	type hot struct {
		idx  int
		hits uint64
	}
	hots := make([]hot, 0, len(pr.Hits))
	for i, h := range pr.Hits {
		if h > 0 {
			hots = append(hots, hot{idx: i, hits: h})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].hits > hots[j].hits })
	b.WriteString("hottest:\n")
	for i, h := range hots {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "  %6.1f%%  %4d: %s\n",
			100*float64(h.hits)/float64(max(1, int(pr.Steps))), h.idx, pr.prog.Insns[h.idx])
	}
	return b.String()
}
