package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"progmp/internal/runtime"
)

// Severity grades a diagnostic. Errors reject a program at load time,
// warnings reject it at the control-plane admission gate (unless
// forced) and fail progmp-vet, infos are advisory.
type Severity int

// The severities, ordered by increasing gravity.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

var severityNames = [...]string{
	SevInfo:    "info",
	SevWarning: "warning",
	SevError:   "error",
}

// String returns the severity name as spelled in diagnostics output.
func (s Severity) String() string {
	if s >= 0 && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its name, the stable wire form
// used by progmp-vet -json and the ctl protocol.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range severityNames {
		if n == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("analysis: unknown severity %q", name)
}

// The analyzer rules. Each diagnostic carries one of these ids; the
// catalogue with rationale and examples lives in docs/ANALYSIS.md.
const (
	// RuleSyntax wraps parser errors (error).
	RuleSyntax = "syntax"
	// RuleType wraps type-checker errors other than the three below
	// (error).
	RuleType = "type"
	// RuleUseBeforeDef is a reference to an undeclared variable (error).
	RuleUseBeforeDef = "use-before-def"
	// RuleSingleAssignment is a redeclaration of a variable, violating
	// the single-assignment form (error).
	RuleSingleAssignment = "single-assignment"
	// RulePurity is a side effect (POP) outside the effect-root
	// positions: VAR initializer, PUSH argument, DROP argument (error).
	RulePurity = "purity"
	// RuleNoPush flags a program with no reachable PUSH on any path: it
	// can never move a packet, so installing it silently starves the
	// connection (warning).
	RuleNoPush = "no-push"
	// RuleDupPush flags pushing the same packet to the same subflow
	// twice on one path, or a loop-invariant PUSH whose target and
	// packet never change across FOREACH iterations (warning).
	RuleDupPush = "dup-push"
	// RulePopDiscard flags VAR x = queue.POP() where x is never pushed
	// or dropped: the pop commits nothing, so its only effect is hiding
	// the packet for the rest of the execution (warning).
	RulePopDiscard = "pop-discard"
	// RuleDeadBranch flags an IF condition that is provably constant,
	// or a FOREACH over a provably empty list (warning).
	RuleDeadBranch = "dead-branch"
	// RuleFalseFilter flags a FILTER predicate that is provably FALSE:
	// the filtered collection is always empty (warning).
	RuleFalseFilter = "false-filter"
	// RuleDivZero flags division or modulo by a provably zero divisor;
	// the language defines x/0 = 0, so the whole expression collapses
	// (warning).
	RuleDivZero = "div-zero"
	// RuleOverflow flags constant arithmetic that wraps int64
	// (warning).
	RuleOverflow = "overflow"
	// RuleStepBudget flags a program whose static worst-case step bound
	// exceeds the VM execution budget at the reference environment
	// size; such a program would be cut off mid-execution and fall
	// back (warning — the runtime budget still contains it).
	RuleStepBudget = "step-budget"
	// RuleUnreachable flags statements that follow a RETURN on every
	// path (warning).
	RuleUnreachable = "unreachable"
	// RuleRQIgnored notes a scheduler that never consults the
	// reinjection queue RQ: packets suspected lost are never reinjected
	// by this program (info — deliberate for some redundancy designs).
	RuleRQIgnored = "rq-ignored"
	// RuleNondeterministicRank flags MIN/MAX over the subflow list
	// whose rank expression cannot tell the candidates apart: it never
	// reads the lambda variable, or reads it only through properties
	// that are connection-wide rather than per-subflow (MSS is filled
	// from the connection configuration, so every view carries the same
	// value). Every candidate then ranks equal and the selection
	// degenerates to the implementation's tie-break — stable in this
	// substrate (first in iteration order), but unspecified in a kernel
	// port of the same specification (warning).
	RuleNondeterministicRank = "nondeterministic-rank"
	// RuleGlobalWriteStorm flags a GSET that executes unconditionally on
	// every scheduling decision (not guarded by any IF; a FOREACH does
	// not count as a guard). Every dirty global publishes a new epoch of
	// the cross-connection shared-state store, so an unconditional write
	// turns each packet decision into a fleet-visible store mutation
	// (warning).
	RuleGlobalWriteStorm = "global-write-storm"
)

// RuleSeverity maps every rule id to its severity.
var RuleSeverity = map[string]Severity{
	RuleSyntax:               SevError,
	RuleType:                 SevError,
	RuleUseBeforeDef:         SevError,
	RuleSingleAssignment:     SevError,
	RulePurity:               SevError,
	RuleNoPush:               SevWarning,
	RuleDupPush:              SevWarning,
	RulePopDiscard:           SevWarning,
	RuleDeadBranch:           SevWarning,
	RuleFalseFilter:          SevWarning,
	RuleDivZero:              SevWarning,
	RuleOverflow:             SevWarning,
	RuleStepBudget:           SevWarning,
	RuleUnreachable:          SevWarning,
	RuleRQIgnored:            SevInfo,
	RuleNondeterministicRank: SevWarning,
	RuleGlobalWriteStorm:     SevWarning,
}

// Diagnostic is one analyzer finding with a stable rule id and source
// position, the structured form surfaced through progmp-vet and the
// ctl compile/swap verbs.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
}

// String renders the diagnostic in the compiler-style line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s: %s [%s]", d.Line, d.Col, d.Severity, d.Message, d.Rule)
}

// Report is the full result of analyzing one program.
type Report struct {
	// Diagnostics is sorted by position, then rule id. Suppressed
	// diagnostics are removed (and counted in Suppressed).
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	// StepBound is the static worst-case VM step count as a polynomial
	// in S (subflow count) and N (the deepest queue's depth).
	StepBound string `json:"step_bound,omitempty"`
	// StepBoundAt is the bound evaluated at the reference environment
	// size (64 subflows, queue depth 1024), comparable against
	// the VM step budget.
	StepBoundAt int64 `json:"step_bound_steps,omitempty"`
	// Suppressed counts diagnostics silenced by //vet:ignore comments.
	Suppressed int `json:"suppressed,omitempty"`
	// Quiescence is the program's quiescence certificate: substrate
	// facts under which it provably emits no action and writes no
	// register or global, so the connection may skip it. One without
	// terms never holds.
	Quiescence runtime.Certificate `json:"-"`
}

// Count returns the number of diagnostics at exactly severity sev.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// Errors returns the number of error diagnostics.
func (r *Report) Errors() int { return r.Count(SevError) }

// Warnings returns the number of warning diagnostics.
func (r *Report) Warnings() int { return r.Count(SevWarning) }

// HasErrors reports whether the program must be rejected.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// Clean reports whether the program carries no errors and no warnings
// (infos are allowed), the bar for control-plane admission.
func (r *Report) Clean() bool { return r.Errors() == 0 && r.Warnings() == 0 }

// String renders all diagnostics, one per line.
func (r *Report) String() string {
	lines := make([]string, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// sortDiags orders diagnostics by position, then rule, for stable
// output.
func (r *Report) sortDiags() {
	sort.SliceStable(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// RejectError is returned when a program fails admission: it carries
// the structured report so callers (the ctl server, progmpctl) can
// relay rule ids and positions instead of a flat string.
type RejectError struct {
	Name   string
	Report *Report
}

// Error summarizes the rejection.
func (e *RejectError) Error() string {
	n := e.Report.Errors()
	worst := "error"
	if n == 0 {
		n = e.Report.Warnings()
		worst = "warning"
	}
	msg := fmt.Sprintf("scheduler %q rejected by static analysis: %d %s(s)", e.Name, n, worst)
	if len(e.Report.Diagnostics) > 0 {
		msg += "; first: " + e.Report.Diagnostics[0].String()
	}
	return msg
}

// ---- Suppressions ----

// suppressionMarker introduces an in-source suppression comment:
//
//	sbf.PUSH(QU.TOP); //vet:ignore dup-push
//	//vet:ignore rq-ignored
//	VAR x = Q.POP();
//
// A marker silences the listed rules (comma- or space-separated; no
// list means every rule) on its own line and on the following line.
const suppressionMarker = "//vet:ignore"

// parseSuppressions scans src for suppression comments. The result
// maps a source line to the set of silenced rules; a nil set silences
// everything.
func parseSuppressions(src string) map[int]map[string]bool {
	var sup map[int]map[string]bool
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, suppressionMarker)
		if idx < 0 {
			continue
		}
		rest := line[idx+len(suppressionMarker):]
		var rules map[string]bool
		fields := strings.FieldsFunc(rest, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		if len(fields) > 0 {
			rules = make(map[string]bool, len(fields))
			for _, f := range fields {
				rules[f] = true
			}
		}
		if sup == nil {
			sup = make(map[int]map[string]bool)
		}
		sup[i+1] = rules
	}
	return sup
}

// applySuppressions removes diagnostics silenced by //vet:ignore
// comments in src, counting them in Suppressed.
func (r *Report) applySuppressions(src string) {
	sup := parseSuppressions(src)
	if sup == nil {
		return
	}
	matches := func(line int, rule string) bool {
		for _, l := range [2]int{line, line - 1} {
			rules, ok := sup[l]
			if !ok {
				continue
			}
			if rules == nil || rules[rule] {
				return true
			}
		}
		return false
	}
	kept := r.Diagnostics[:0]
	for _, d := range r.Diagnostics {
		if matches(d.Line, d.Rule) {
			r.Suppressed++
		} else {
			kept = append(kept, d)
		}
	}
	r.Diagnostics = kept
}
