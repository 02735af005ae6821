package analysis

import (
	"math/rand"
	"testing"

	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

// markerValue is written to R8 by the marker statement the agreement
// test injects into provably dead branches.
const markerValue = 424242

// FuzzAnalyze asserts the analyzer's robustness contract: AnalyzeSource
// never panics, and every diagnostic it emits is well-formed (known
// rule id, severity matching the catalogue, positive position).
func FuzzAnalyze(f *testing.F) {
	// The front end's own fuzz seeds: valid programs, truncated
	// programs, and garbage.
	seeds := []string{
		"IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
		"VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);",
		"SET(R1, R1 + 1);",
		"FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(Q.TOP); }",
		"DROP(RQ.POP());",
		"IF (Q.TOP != NULL) { RETURN; } ELSE IF (QU.EMPTY) { SET(R8, 0); }",
		"VAR x = (1 + 2) * -3 / R4 % 7;",
		"IF (TRUE) {",
		"))))(((",
		"VAR VAR VAR",
		"/* unterminated",
		"// only a comment",
		"",
		"\x00\xff",
		"R9 R0 R1",
		// Analyzer-specific shapes: suppressions, dead code, budgets.
		"//vet:ignore\nVAR p = Q.POP();",
		"IF (1 > 2) { SET(R1, 0 / 0); } RETURN; RETURN;",
		"FOREACH (VAR s IN SUBFLOWS) { IF (Q.FILTER(p => Q.COUNT > 0).COUNT > 0) { s.PUSH(Q.TOP); } }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, src := range schedlib.All {
		f.Add(src)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		f.Add(envtest.GenProgram(rng))
	}
	f.Fuzz(func(t *testing.T, src string) {
		rep := AnalyzeSource(src, Options{})
		for _, d := range rep.Diagnostics {
			want, known := RuleSeverity[d.Rule]
			if !known {
				t.Fatalf("unknown rule id %q in %s", d.Rule, d)
			}
			if d.Severity != want {
				t.Fatalf("diagnostic %s has severity %s, want %s", d, d.Severity, want)
			}
			if d.Line < 1 || d.Col < 1 {
				t.Fatalf("diagnostic %s has non-positive position", d)
			}
		}
	})
}

// TestGeneratedCorpusNoPanic pushes a deterministic batch of random
// programs through the analyzer: no panics, well-formed reports, and a
// step bound for every program that checks.
func TestGeneratedCorpusNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		src := envtest.GenProgram(rng)
		rep := AnalyzeSource(src, Options{})
		if rep.HasErrors() {
			t.Fatalf("generated program #%d does not check:\n%s\n%s", i, src, rep)
		}
		if rep.StepBoundAt <= 0 {
			t.Fatalf("generated program #%d has no step bound:\n%s", i, src)
		}
	}
}

// TestDeadBranchAgreement is the analyzer/interpreter agreement check:
// a marker statement injected into a branch the analyzer proved dead
// must not change the program's behaviour on any environment. The
// marked and unmarked programs are run on identical random
// environments and compared on registers and actions.
func TestDeadBranchAgreement(t *testing.T) {
	// Handcrafted programs guarantee coverage; generated programs add
	// breadth (their random comparisons are occasionally constant).
	sources := []string{
		`
IF (1 > 2) {
    SET(R1, 7);
} ELSE {
    SET(R2, R3 + 1);
}
IF (2 > 1) {
    SET(R4, 1);
} ELSE {
    DROP(Q.POP());
}
FOREACH (VAR s IN SUBFLOWS) {
    IF (5 < 3) {
        s.PUSH(Q.TOP);
    }
}
IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
    SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
}
`,
		`
VAR none = SUBFLOWS.FILTER(s => FALSE);
IF (none.COUNT > 0) {
    DROP(Q.POP());
}
IF (none.EMPTY) {
    SET(R1, 1);
} ELSE {
    SET(R2, 1);
}
`,
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		sources = append(sources, envtest.GenProgram(rng))
	}

	deadSeen := 0
	for i, src := range sources {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("program #%d: %v", i, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("program #%d: %v", i, err)
		}
		_, facts := AnalyzeProgram(info, Options{})
		if len(facts.DeadIfs) == 0 {
			continue
		}
		marked := 0
		for _, di := range facts.DeadIfs {
			marker := &lang.SetStmt{Reg: 7, Value: &lang.NumberLit{Val: markerValue}}
			if di.DeadThen {
				di.If.Then.Stmts = append(di.If.Then.Stmts, marker)
				marked++
			} else if blk, ok := di.If.Else.(*lang.BlockStmt); ok {
				blk.Stmts = append(blk.Stmts, marker)
				marked++
			}
		}
		if marked == 0 {
			continue
		}
		deadSeen += marked
		markedSrc := prog.Format()
		for trial := 0; trial < 20; trial++ {
			seed := rng.Int63()
			origEnv := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
			markEnv := envtest.RandomEnv(rand.New(rand.NewSource(seed)))
			execSrc(t, src, origEnv)
			execSrc(t, markedSrc, markEnv)
			if *origEnv.Regs != *markEnv.Regs {
				t.Fatalf("program #%d: marker in analyzer-proven dead branch executed\nsource:\n%s\nmarked:\n%s\nregs %v vs %v",
					i, src, markedSrc, *origEnv.Regs, *markEnv.Regs)
			}
			if !envtest.SameActions(origEnv.Actions, markEnv.Actions) {
				t.Fatalf("program #%d: dead-branch marker changed actions\nsource:\n%s", i, src)
			}
		}
	}
	if deadSeen == 0 {
		t.Fatal("agreement test exercised no dead branches")
	}
}

func execSrc(t *testing.T, src string, env *runtime.Env) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	interp.New(info).Exec(env)
}
