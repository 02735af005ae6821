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

// analyzeAllocsCeiling is what Analyze allocated per corpus program
// before the quiescence certificate, the step bound and the diagnostics
// came from one walk (go1.24.0): the merged walk may allocate no more.
var analyzeAllocsCeiling = map[string]float64{
	"compensating":           355,
	"cwndRelaxTail":          306,
	"deadlineAware":          422,
	"handoverAware":          455,
	"http2Aware":             422,
	"jointFlow":              378,
	"minRTT":                 310,
	"minRTTOpportunistic":    369,
	"minRTTVariance":         336,
	"opportunisticRedundant": 117,
	"probingMinRTT":          356,
	"qaware":                 247,
	"redundant":              148,
	"redundantIfNoQ":         180,
	"roundRobin":             149,
	"selectiveCompensation":  439,
	"tap":                    442,
	"targetRTT":              346,
	"tlsAware":               406,
}

// TestAnalyzeAllocs keeps the analyzer's garbage on core.Load from
// growing: certificate formulas are values, and the walk that derives
// them is the one that checks the rules and costs the program.
func TestAnalyzeAllocs(t *testing.T) {
	for name, src := range schedlib.All {
		ceiling, ok := analyzeAllocsCeiling[name]
		if !ok {
			t.Errorf("%s: no allocation ceiling recorded", name)
			continue
		}
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(10, func() { Analyze(info, Options{}) })
		if n > ceiling {
			t.Errorf("%s: Analyze allocates %.0f times, above the %.0f of the separate walks", name, n, ceiling)
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
