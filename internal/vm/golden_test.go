package vm_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"progmp/internal/analysis"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

// corpusBytecodeGolden is the digest of the disassembly of every
// schedlib.All program at every specialization below plus its analyzer
// step bound, recorded on the commit before types.Scan replaced the
// back-ends' private queue-chain resolvers and re-recorded when the
// step bound became a sound bound on VM steps (bytecode unchanged,
// bounds raised), and again when a scan with a !p.SENT_ON(x) filter
// began at OpQSkipSent instead of OpMovImm -1 (one for one, in the six
// programs with that shape; bounds unchanged). A refactor of lowering,
// optimizer, allocator or cost model that claims "bytecode unchanged"
// passes this test; one that means to change bytecode re-records it and
// says why.
const corpusBytecodeGolden = "2b086ffe37c5c946f05f59f3f8239099743693f6f841e15d6a3d5a7e5ad9b13d"

func TestCorpusBytecodeGolden(t *testing.T) {
	names := make([]string, 0, len(schedlib.All))
	for name := range schedlib.All {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		prog, err := lang.Parse(schedlib.All[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := analysis.Analyze(info, analysis.Options{})
		fmt.Fprintf(h, "== %s bound %s = %d\n", name, rep.StepBound, rep.StepBoundAt)
		for _, n := range []int{-1, 0, 1, 2, 3, 4, 8} {
			p, err := vm.Compile(info, vm.Options{SubflowCount: n})
			if err != nil {
				t.Fatalf("%s @%d: %v", name, n, err)
			}
			fmt.Fprintf(h, "-- %d\n%s", n, p.Disassemble())
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != corpusBytecodeGolden {
		t.Errorf("corpus bytecode digest = %s, want %s", got, corpusBytecodeGolden)
	}
}
