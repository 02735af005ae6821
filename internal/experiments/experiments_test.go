package experiments

import (
	"strconv"
	"testing"
)

// Wall time, which no golden pins; every virtual-time claim is judged
// beside its section in cmd/progmp-experiments.

// TestOverheadShapes asserts Fig. 9 top: all programmable back-ends
// cost more than native, the interpreter is the slowest, and the
// compiled back-ends narrow the gap.
func TestOverheadShapes(t *testing.T) {
	results, err := ExecutionOverhead(20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", results)
	byKey := map[string]OverheadResult{}
	for _, r := range results {
		byKey[r.Backend+"/"+strconv.Itoa(r.Subflows)] = r
	}
	for _, n := range []string{"2", "4"} {
		interp := byKey["interpreter/"+n]
		compiled := byKey["compiled/"+n]
		if interp.RelativeToNative < 1.0 {
			t.Errorf("%s subflows: interpreter (%.0f%%) should cost more than native", n, interp.RelativeToNative*100)
		}
		if compiled.NsPerOp > interp.NsPerOp {
			t.Errorf("%s subflows: compiled (%.0fns) should beat the interpreter (%.0fns)",
				n, compiled.NsPerOp, interp.NsPerOp)
		}
	}
}

// TestUpcallOverheadShape asserts §4.1: the up-call architecture costs
// several times a direct in-stack execution.
func TestUpcallOverheadShape(t *testing.T) {
	res, err := UpcallOverhead(20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("direct %.0f ns, upcall %.0f ns, factor %.1fx", res.DirectNsPerOp, res.UpcallNsPerOp, res.Factor)
	if res.Factor < 2 {
		t.Errorf("up-call factor %.1fx, want the architectural gap the paper reports (≈12x in kernel terms)", res.Factor)
	}
}
