package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/schedlib"
)

var update = flag.Bool("update", false, "rewrite testdata/quiescence.golden")

// TestQuiescenceGolden pins the quiescence certificate of every corpus
// program (testdata/quiescence.golden; rewrite it with
// `go test -run TestQuiescenceGolden -update`).
func TestQuiescenceGolden(t *testing.T) {
	names := make([]string, 0, len(schedlib.All))
	for name := range schedlib.All {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		rep := AnalyzeSource(schedlib.All[name], Options{})
		fmt.Fprintf(&b, "%-23s %s\n", name, rep.Quiescence.String())
	}
	got := b.String()
	golden := filepath.Join("testdata", "quiescence.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("certificates drifted from %s (rerun with -update if intended)\nwant:\n%s\ngot:\n%s", golden, want, got)
	}
}

// TestQuiescenceAllocatesNothing keeps the derivation off core.Load's
// allocation count: its formulas are values, and a corpus program has
// fewer variables than the pass tracks on the stack.
func TestQuiescenceAllocatesNothing(t *testing.T) {
	for name, src := range schedlib.All {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { Quiescence(info) }); n != 0 {
			t.Errorf("%s: the derivation allocates %.0f times", name, n)
		}
	}
}

// TestQuiescenceShapes pins how each language form enters the
// certificate.
func TestQuiescenceShapes(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"no effect", "VAR x = Q.COUNT;", "always"},
		{"unconditional SET", "SET(R1, 1);", "never"},
		{"pop", "SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());", "Q.EMPTY"},
		{"null target still pops", "SUBFLOWS.GET(0).PUSH(Q.POP());", "Q.EMPTY"},
		{"target", "SUBFLOWS.FILTER(s => !s.LOSSY).GET(R1).PUSH(QU.TOP);", "QU.EMPTY ∨ none(¬LOSSY)"},
		{"exact filter decides ELSE", "IF (SUBFLOWS.FILTER(s => !s.IS_BACKUP AND TRUE).EMPTY) { SET(R1, 1); }", "some(primary)"},
		{"inexact filter does not", "IF (SUBFLOWS.FILTER(s => !s.IS_BACKUP AND s.RTT > 5).EMPTY) { SET(R1, 1); }", "never"},
		{"headroom either way round", "FOREACH (VAR s IN SUBFLOWS.FILTER(f => f.QUEUED + f.SKBS_IN_FLIGHT < f.CWND)) { SET(R1, 1); }", "none(headroom)"},
		{"bool variable", "VAR idle = Q.EMPTY AND RQ.EMPTY; IF (!idle) { SET(R1, 1); }", "Q.EMPTY ∧ RQ.EMPTY"},
		{"OR needs both", "IF (!Q.EMPTY OR !QU.EMPTY) { GSET(G1, 1); }", "Q.EMPTY ∧ QU.EMPTY"},
		{"non-empty is no fact", "IF (Q.EMPTY) { SET(R1, 1); }", "never"},
		{"null test", "VAR p = RQ.TOP; IF (p == NULL) { RETURN; } IF (p != NULL) { DROP(p); }", "RQ.EMPTY"},
		{"complementary terms stay two", "IF (SUBFLOWS.EMPTY) { FOREACH (VAR s IN SUBFLOWS) { SET(R1, 1); } }", "some(SUBFLOWS) ∨ none(SUBFLOWS)"},
	} {
		rep := AnalyzeSource(c.src, Options{})
		if rep.HasErrors() {
			t.Fatalf("%s: %v", c.name, rep)
		}
		if got := rep.Quiescence.String(); got != c.want {
			t.Errorf("%s: certificate %q, want %q\n%s", c.name, got, c.want, c.src)
		}
	}
}
