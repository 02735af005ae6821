// Package analysis is the static analyzer behind progmp-vet and the
// control-plane admission gate. It walks the type-checked AST once: one
// recursive switch over statements and one over expressions, where each
// expression's result carries its abstract value (intervals, three-
// valued booleans, nullness, emptiness), its worst-case VM step cost as
// a polynomial over S subflows and N queued packets, its quiescence
// facts (DNF formulas over substrate facts) and a summary of what it
// reads. From that walk come structured diagnostics (rule id,
// severity, position) that callers can relay or act on, the step
// bound, and the quiescence certificate.
//
// The severity contract: errors are programs the front end already
// refuses (syntax, type, use-before-def, single-assignment, purity) —
// the analyzer re-expresses them as structured diagnostics; warnings
// are admissible-but-almost-certainly-buggy shapes (no reachable PUSH,
// duplicate PUSH, provably dead code, a step bound above the VM
// budget) that fail progmp-vet and the ctl swap gate unless forced;
// infos are advisory. Every warning fires only on a *definite* fact,
// so a clean corpus stays clean without per-rule tuning.
package analysis

import (
	"fmt"
	"strconv"
	"strings"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

// The reference environment size the step bound is evaluated at: the
// most subflows the runtime admits, and — the language does not bound
// queue length — a queue depth generously above what the runtime's
// queues hold in practice.
const (
	refSubflows   = runtime.MaxSubflows
	refQueueDepth = 1024
)

// Options parameterizes an analysis run. The zero value selects the
// defaults.
type Options struct {
	// StepBudget is the execution budget the bound is compared against.
	// Defaults to vm.MaxSteps.
	//progmp:ignore testonly bench/load.go builds analysis.Options (ROADMAP item 3), and TestCostRespectsOptions needs a budget of 10
	StepBudget int64
}

func (o Options) withDefaults() Options {
	if o.StepBudget <= 0 {
		o.StepBudget = vm.MaxSteps
	}
	return o
}

// Facts carries analysis results beyond diagnostics, for callers that
// act on proofs rather than report them (tests cross-check them
// against the interpreter).
type Facts struct {
	// DeadIfs lists IF statements with a provably constant condition.
	DeadIfs []DeadIf
	// bound is the step bound before evaluation, for FuzzStepBound to
	// evaluate at each environment's size.
	//progmp:ignore testonly FuzzStepBound and TestStepBoundCorpus evaluate it against the VM's steps
	bound poly
}

// DeadIf is one provably dead IF branch.
type DeadIf struct {
	//progmp:ignore testonly TestDeadBranchAgreement plants a marker in the dead branch
	If *lang.IfStmt
	// DeadThen is true when the condition is always FALSE (THEN branch
	// dead), false when it is always TRUE (ELSE branch dead).
	//progmp:ignore testonly TestDeadBranchAgreement reads which branch is dead
	DeadThen bool
}

// Analyze runs the analyzer over a type-checked program and returns
// its report. Suppression comments are honored when the program
// carries its source (lang.Parse records it).
func Analyze(info *types.Info, opts Options) *Report {
	rep, _ := AnalyzeProgram(info, opts)
	return rep
}

// AnalyzeProgram is Analyze plus the machine-checkable facts.
func AnalyzeProgram(info *types.Info, opts Options) (*Report, *Facts) {
	opts = opts.withDefaults()
	a := &analyzer{info: info, rep: &Report{}, facts: &Facts{}}
	bound := a.run()
	a.facts.bound = bound
	a.rep.Quiescence = runtime.Certificate{N: a.cert.n, Terms: a.cert.t}
	a.rep.StepBound = bound.String()
	a.rep.StepBoundAt = bound.eval(refSubflows, refQueueDepth)
	if a.rep.StepBoundAt > opts.StepBudget {
		a.forceDiag(RuleStepBudget, info.Prog.Position(),
			"worst-case step bound %s = %d at S=%d subflows, N=%d queued packets exceeds the execution budget of %d; the runtime will cut this scheduler off and fall back",
			a.rep.StepBound, a.rep.StepBoundAt, refSubflows, refQueueDepth, opts.StepBudget)
	}

	a.rep.applySuppressions(info.Prog.Source)
	a.rep.sortDiags()
	return a.rep, a.facts
}

// AnalyzeSource parses, checks, and analyzes raw scheduler source. It
// never returns a Go error: syntax and checker failures become
// structured error diagnostics in the report, so callers get positions
// and rule ids even for programs the front end rejects.
func AnalyzeSource(src string, opts Options) *Report {
	prog, err := lang.Parse(src)
	if err != nil {
		rep := &Report{}
		for _, e := range splitErrors(err) {
			rep.Diagnostics = append(rep.Diagnostics, frontEndDiag(RuleSyntax, e))
		}
		rep.sortDiags()
		return rep
	}
	info, err := types.Check(prog)
	if err != nil {
		rep := &Report{}
		for _, e := range splitErrors(err) {
			rep.Diagnostics = append(rep.Diagnostics, frontEndDiag(classifyCheckError(e), e))
		}
		rep.applySuppressions(src)
		rep.sortDiags()
		return rep
	}
	return Analyze(info, opts)
}

// splitErrors flattens a front-end error into its individual messages
// (types.CheckError joins them with newlines).
func splitErrors(err error) []string {
	var out []string
	for _, line := range strings.Split(err.Error(), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// classifyCheckError maps a checker message to the matching rule id.
func classifyCheckError(msg string) string {
	switch {
	case strings.Contains(msg, "undeclared identifier"):
		return RuleUseBeforeDef
	case strings.Contains(msg, "redeclared (single-assignment"):
		return RuleSingleAssignment
	case strings.Contains(msg, "POP has side effects"):
		return RulePurity
	}
	return RuleType
}

// frontEndDiag builds a diagnostic from a front-end message of the
// form "line:col: text" (the position prefix is optional).
func frontEndDiag(rule, msg string) Diagnostic {
	d := Diagnostic{Rule: rule, Severity: RuleSeverity[rule], Line: 1, Col: 1, Message: msg}
	parts := strings.SplitN(msg, ":", 3)
	if len(parts) == 3 {
		line, errL := strconv.Atoi(strings.TrimSpace(parts[0]))
		col, errC := strconv.Atoi(strings.TrimSpace(parts[1]))
		if errL == nil && errC == nil {
			d.Line, d.Col = line, col
			d.Message = strings.TrimSpace(parts[2])
		}
	}
	return d
}

// sprintf is fmt.Sprintf; aliased so the walker's diag helper reads as
// one call.
func sprintf(format string, args ...any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}
