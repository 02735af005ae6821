// Package analyze is the repository's type-aware static-analysis
// suite: the Go-side counterpart of internal/analysis (which verifies
// scheduler programs before admission). Where the DSL analyzer proves
// properties of the programmable layer, this package proves properties
// of the substrate beneath it — the invariants the runtime's
// correctness and performance story rest on but that were previously
// enforced only dynamically (benchmarks, soak tests):
//
//	hotpath        functions marked //progmp:hotpath must not contain
//	               allocation-inducing constructs, transitively through
//	               the package-level call graph, so the 0 allocs/op
//	               benchmark contract is a compile-time property.
//	deterministic  zones marked //progmp:deterministic must not reach
//	               wall clocks, global randomness, map iteration or
//	               GOMAXPROCS-dependent constructs — mechanizing the
//	               fleet shard-invariance contract (docs/FLEET.md).
//	epochsafe      state of types marked //progmp:epochshared (the
//	               xstate seqlock table and the snapshots it copies
//	               out) may only be written, plainly or by a mutating
//	               sync/atomic method, inside functions marked
//	               //progmp:publish (write sections), and a struct
//	               field must not mix sync/atomic access with plain
//	               access.
//	eventkind      obs.Event composite literals must set Kind.
//	metricname     metric names are dot-separated lower_snake.
//	metrickind     one metric name, one metric kind per package.
//	testonly       every exported identifier of the root package and
//	               under internal/ has a use in the module's non-test
//	               code, and every exported field of a *Config or
//	               *Options type a set there.
//
// The last three migrated here from tools/lint; they now resolve the
// obs types and Registry methods through go/types, so aliased
// receivers, wrapped constructors and named string constants are seen.
//
// The package is deliberately stdlib-only (go/ast, go/parser,
// go/types, go/importer) so it works in the offline build environment;
// module-internal imports are resolved by the loader itself and
// standard-library imports are type-checked from GOROOT source.
//
// Directive syntax, the pass catalogue and suppression comments are
// documented in docs/ANALYSIS.md ("Go-side invariant passes").
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Pass)
}

// An Analyzer is one named pass run over every requested package.
type Analyzer struct {
	Name string
	Doc  string
	// SkipTests exempts _test.go files (and external test packages)
	// from this pass.
	SkipTests bool
	Run       func(*Pass)
}

// Analyzers is the registry, in report order.
var Analyzers = []*Analyzer{
	{
		Name: "hotpath",
		Doc:  "//progmp:hotpath functions must be provably allocation-free",
		Run:  runHotpath,
	},
	{
		Name: "deterministic",
		Doc:  "//progmp:deterministic zones must not reach nondeterminism sources",
		Run:  runDeterministic,
	},
	{
		Name: "epochsafe",
		Doc:  "//progmp:epochshared state is written only in //progmp:publish write sections",
		Run:  runEpochSafe,
	},
	{
		Name: "eventkind",
		Doc:  "obs.Event composite literals must set Kind explicitly",
		Run:  runEventKind,
	},
	{
		Name:      "metricname",
		Doc:       "metric names are dot-separated lower_snake components",
		Run:       runMetricName,
		SkipTests: true,
	},
	{
		Name:      "metrickind",
		Doc:       "one metric name, one metric kind per package",
		Run:       runMetricKind,
		SkipTests: true,
	},
	{
		Name:      "testonly",
		Doc:       "exported identifiers of the root package and under internal/ are used, config knobs set and struct fields read by non-test code of the module",
		Run:       runTestonly,
		SkipTests: true,
	},
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Suite    *Suite
	Pkg      *Package
	// Files are the files this pass inspects (test files removed when
	// the analyzer sets SkipTests).
	Files []*ast.File

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a suppression comment
// (//progmp:ignore) covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Suite.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Pass:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers (all of them when nil) over pkgs
// and returns the findings sorted by position.
func (s *Suite) Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	if analyzers == nil {
		analyzers = Analyzers
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.SkipTests && pkg.ExternalTest {
				continue
			}
			files := pkg.Files
			if a.SkipTests {
				files = pkg.nonTestFiles()
			}
			if len(files) == 0 {
				continue
			}
			for _, sup := range pkg.suppress {
				sup.used = false
			}
			pass := &Pass{
				Analyzer: a,
				Suite:    s,
				Pkg:      pkg,
				Files:    files,
				diags:    &diags,
			}
			a.Run(pass)
			pass.reportStale()
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Pass < diags[j].Pass
	})
	return diags
}

// nonTestFiles returns the package's files minus _test.go files.
func (p *Package) nonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.fileName(f), "_test.go") {
			out = append(out, f)
		}
	}
	return out
}
