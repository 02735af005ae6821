package analyze

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFixture type-checks src as a standalone module-internal package
// and runs the named passes over it, returning the findings.
func runFixture(t *testing.T, passes []string, src string) []Diagnostic {
	t.Helper()
	suite, err := NewSuite(".")
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	pkg, err := suite.CheckSource("progmp/internal/fixture", map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	var as []*Analyzer
	for _, name := range passes {
		a := AnalyzerByName(name)
		if a == nil {
			t.Fatalf("unknown analyzer %q", name)
		}
		as = append(as, a)
	}
	return suite.Run([]*Package{pkg}, as)
}

// expect asserts that exactly the wanted message fragments are
// reported, in order.
func expect(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(want), render(diags))
	}
	for i, frag := range want {
		if !strings.Contains(diags[i].Message, frag) {
			t.Errorf("finding %d = %q, want fragment %q", i, diags[i].Message, frag)
		}
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestHotpathDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "alloc constructs",
			src: `package fixture

type S struct{ xs []int }

//progmp:hotpath
func (s *S) Hot(n int) {
	s.xs = append(s.xs, n)
	m := make([]byte, n)
	_ = m
	p := new(int)
	_ = p
}
`,
			want: []string{"append may grow", "make allocates", "new allocates"},
		},
		{
			name: "callee propagation into unannotated same-package function",
			src: `package fixture

//progmp:hotpath
func Hot() { helper() }

func helper() { _ = map[int]int{} }
`,
			want: []string{"map literal allocates"},
		},
		{
			name: "interface boxing and closures",
			src: `package fixture

func sink(v any) { _ = v }

//progmp:hotpath
func Hot(n int) {
	sink(n)
	f := func() {}
	_ = f
}
`,
			want: []string{"boxes the value", "closure allocates"},
		},
		{
			name: "string concatenation and map write",
			src: `package fixture

type S struct{ m map[string]int }

//progmp:hotpath
func (s *S) Hot(a, b string) {
	s.m[a+b] = 1
}
`,
			want: []string{"map write may rehash", "string concatenation allocates"},
		},
		{
			name: "cross-package call needs annotation",
			src: `package fixture

import "strconv"

//progmp:hotpath
func Hot(n int) string { return strconv.Itoa(n) }
`,
			want: []string{"crosses a package boundary"},
		},
		{
			name: "suppression with reason silences one line",
			src: `package fixture

type S struct{ xs []int }

//progmp:hotpath
func (s *S) Hot(n int) {
	//progmp:ignore hotpath amortized: capacity retained
	s.xs = append(s.xs, n)
}
`,
			want: nil,
		},
		{
			name: "allowlisted time and atomic calls pass",
			src: `package fixture

import (
	"sync/atomic"
	"time"
)

type S struct{ n atomic.Int64 }

//progmp:hotpath
func (s *S) Hot() int64 {
	s.n.Add(time.Now().UnixNano())
	return s.n.Load()
}
`,
			want: nil,
		},
		{
			name: "callback literal passed as argument is walked inline",
			src: `package fixture

//progmp:hotpath
func each(xs []int, f func(int) bool) {
	for _, x := range xs {
		//progmp:ignore hotpath callback literal is checked inline at each call site
		if !f(x) {
			return
		}
	}
}

//progmp:hotpath
func Hot(xs []int) {
	n := 0
	each(xs, func(x int) bool { n += x; return true })
}
`,
			want: nil,
		},
		{
			name: "escaping callback literal inside argument is still flagged",
			src: `package fixture

//progmp:hotpath
func each(xs []int, f func(int) bool) {
	for _, x := range xs {
		//progmp:ignore hotpath callback literal is checked inline at each call site
		if !f(x) {
			return
		}
	}
}

//progmp:hotpath
func Hot(xs []int) {
	each(xs, func(x int) bool { return append(xs, x) != nil })
}
`,
			want: []string{"append may grow"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, []string{"hotpath"}, tc.src), tc.want...)
		})
	}
}

func TestDeterministicDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			// The seeded acceptance fixture: injecting a wall-clock
			// read into a //progmp:deterministic zone must fail the
			// analyzer (this is what CI's seeded-violation job pins).
			name: "time.Now in deterministic zone",
			src: `package fixture

import "time"

//progmp:deterministic
func Tick() int64 { return time.Now().UnixNano() }
`,
			want: []string{"time.Now"},
		},
		{
			name: "global math/rand draw",
			src: `package fixture

import "math/rand"

//progmp:deterministic
func Draw() int64 { return rand.Int63() }
`,
			want: []string{"math/rand"},
		},
		{
			name: "seeded rand.Rand methods pass",
			src: `package fixture

import "math/rand"

type S struct{ rng *rand.Rand }

//progmp:deterministic
func (s *S) Draw() int64 { return s.rng.Int63() }
`,
			want: nil,
		},
		{
			name: "map iteration, select, go",
			src: `package fixture

//progmp:deterministic
func Walk(m map[int]int, ch chan int) {
	for k := range m {
		_ = k
	}
	select {
	case <-ch:
	default:
	}
	go func() {}()
}
`,
			want: []string{"map iteration order", "select", "goroutine"},
		},
		{
			name: "GOMAXPROCS",
			src: `package fixture

import "runtime"

//progmp:deterministic
func Procs() int { return runtime.GOMAXPROCS(0) }
`,
			want: []string{"runtime.GOMAXPROCS"},
		},
		{
			name: "callee propagation same package",
			src: `package fixture

import "time"

//progmp:deterministic
func Zone() { helper() }

func helper() { _ = time.Now() }
`,
			want: []string{"time.Now"},
		},
		{
			name: "suppressed map range with reason",
			src: `package fixture

//progmp:deterministic
func Walk(m map[int]int) int {
	n := 0
	//progmp:ignore deterministic iteration order is invisible: result is a commutative sum
	for _, v := range m {
		n += v
	}
	return n
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, []string{"deterministic"}, tc.src), tc.want...)
		})
	}
}

func TestEpochSafeDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "write outside publish path",
			src: `package fixture

//progmp:epochshared
type Snap struct{ N int64 }

func Mutate(s *Snap) { s.N = 1 }
`,
			want: []string{"outside a //progmp:publish function"},
		},
		{
			name: "write inside publish passes",
			src: `package fixture

//progmp:epochshared
type Snap struct{ N int64 }

//progmp:publish
func Publish(s *Snap) { s.N = 1 }
`,
			want: nil,
		},
		{
			name: "write through nested pointer chain",
			src: `package fixture

//progmp:epochshared
type Snap struct{ Recs []Rec }

//progmp:epochshared
type Rec struct{ V int64 }

func Mutate(s *Snap) { s.Recs[0].V = 2 }
`,
			want: []string{"outside a //progmp:publish function"},
		},
		{
			name: "by-value copy is not a shared write",
			src: `package fixture

//progmp:epochshared
type Snap struct{ N int64 }

func Copy(s *Snap) Snap {
	c := *s
	c.N = 9
	return c
}
`,
			want: nil,
		},
		{
			name: "atomic and plain access mixed on one field",
			src: `package fixture

import "sync/atomic"

type S struct{ n int64 }

func Mixed(s *S) {
	atomic.AddInt64(&s.n, 1)
	s.n = 2
}
`,
			want: []string{"accessed via sync/atomic elsewhere"},
		},
		{
			name: "plain read of an atomically written field",
			src: `package fixture

import "sync/atomic"

type S struct{ n int64 }

func Bump(s *S) { atomic.AddInt64(&s.n, 1) }

func Peek(s *S) int64 { return s.n }
`,
			want: []string{"accessed via sync/atomic elsewhere"},
		},
		{
			name: "atomic write to a shared cell outside a write section",
			src: `package fixture

import "sync/atomic"

//progmp:epochshared
type cell struct{ n atomic.Int64 }

func Bump(c *cell) { c.n.Add(1) }
`,
			want: []string{"write to epoch-shared cell outside a //progmp:publish function"},
		},
		{
			name: "atomic write through a shared value behind a pointer",
			src: `package fixture

import "sync/atomic"

//progmp:epochshared
type table struct {
	seq   atomic.Uint64
	cells atomic.Pointer[[]int64]
}

type Store struct{ t table }

func Open(s *Store) { s.t.seq.Add(1) }

func Swap(s *Store, c []int64) { s.t.cells.Store(&c) }
`,
			want: []string{"write to epoch-shared table", "write to epoch-shared table"},
		},
		{
			name: "atomic writes in a write section and atomic reads anywhere pass",
			src: `package fixture

import "sync/atomic"

//progmp:epochshared
type cell struct{ n atomic.Int64 }

//progmp:publish
func Bump(c *cell) { c.n.Add(1) }

func Read(cs []cell, i int) int64 { return cs[i].n.Load() }

func Local() int64 {
	var own cell
	own.n.Store(3)
	return own.n.Load()
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, []string{"epochsafe"}, tc.src), tc.want...)
		})
	}
}

func TestConventionDiagnostics(t *testing.T) {
	cases := []struct {
		name   string
		passes []string
		src    string
		want   []string
	}{
		{
			name:   "event literal without Kind",
			passes: []string{"eventkind"},
			src: `package fixture

import "progmp/internal/obs"

func Mk() obs.Event { return obs.Event{At: 0, Seq: 1} }
`,
			want: []string{"does not set Kind"},
		},
		{
			name:   "positional event literal",
			passes: []string{"eventkind"},
			src: `package fixture

import "progmp/internal/obs"

func Mk() obs.Event { return obs.Event{0, 1, 0, 0, 0, 0, 0, obs.EvPop} }
`,
			want: []string{"positional fields"},
		},
		{
			name:   "bad metric name through a named constant",
			passes: []string{"metricname"},
			src: `package fixture

import "progmp/internal/obs"

const badName = "Fleet.Conns"

func Reg(r *obs.Registry) { r.Counter(badName) }
`,
			want: []string{"not dot-separated lower_snake"},
		},
		{
			name:   "same name two kinds",
			passes: []string{"metrickind"},
			src: `package fixture

import "progmp/internal/obs"

func Reg(r *obs.Registry) {
	r.Counter("fleet.conns")
	r.Gauge("fleet.conns")
}
`,
			want: []string{"registered as"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, tc.passes, tc.src), tc.want...)
		})
	}
}

// TestStaleSuppressionDiagnostics: a //progmp:ignore that suppressed
// nothing is a finding of the pass it names — when that pass ran.
func TestStaleSuppressionDiagnostics(t *testing.T) {
	const src = `package fixture

import "strconv"

type S struct{ xs []int }

//progmp:hotpath
func (s *S) Hot(n int) string {
	//progmp:ignore hotpath amortized: capacity retained
	s.xs = append(s.xs, n)
	//progmp:ignore hotpath the construct this vouched for was deleted
	s.xs[0] = n
	//progmp:ignore hotpath cold path: pruned at the call, which counts as use
	return strconv.Itoa(n)
}

func cold(m map[int]int) {
	//progmp:ignore hotpath,deterministic no hot path and no deterministic zone reaches this function
	m[0] = 1
}
`
	cases := []struct {
		name   string
		passes []string
		want   []string
	}{
		{"the named pass ran", []string{"hotpath"},
			[]string{"ignore hotpath suppresses nothing", "ignore hotpath suppresses nothing"}},
		{"each named pass answers for itself", []string{"hotpath", "deterministic"},
			[]string{"ignore hotpath suppresses nothing", "ignore deterministic suppresses nothing", "ignore hotpath suppresses nothing"}},
		{"a pass that did not run reports nothing", []string{"epochsafe"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, tc.passes, src)
			expect(t, diags, tc.want...)
			if len(diags) > 0 && diags[0].Pos.Line != 11 {
				t.Errorf("first stale suppression reported at line %d, want 11 (the comment)", diags[0].Pos.Line)
			}
		})
	}
}

// runModuleFixture writes files (module-relative name -> source) into a
// fresh module "fixmod", loads the packages under dir and runs the
// named passes over them. The testonly pass indexes the whole fixture
// module, as it indexes the whole repository.
func runModuleFixture(t *testing.T, files map[string]string, dir string, passes ...string) []Diagnostic {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	suite, err := NewSuite(root)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	pkgs, err := suite.Load(filepath.Join(root, filepath.FromSlash(dir)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var as []*Analyzer
	for _, name := range passes {
		as = append(as, AnalyzerByName(name))
	}
	return suite.Run(pkgs, as)
}

// TestTestonlyDiagnostics: an exported identifier under internal/ or in
// the module root package needs a use in the module's non-test code.
func TestTestonlyDiagnostics(t *testing.T) {
	const lib = `package lib

// Namer is implemented by T.
type Namer interface{ Name() string }

// Describe calls Name through the interface only.
func Describe(n Namer) string { return n.Name() }

// T implements Namer.
type T struct{}

// Name is reached only through Namer.
func (T) Name() string { return "t" }

// S is settled through an anonymous interface.
type S struct{}

// Applied is reached only through the type assertion in Settle.
func (S) Applied(n int) bool { return n == 0 }

// Settle asserts an anonymous interface.
func Settle(x any) bool {
	if a, ok := x.(interface{ Applied(int) bool }); ok {
		return a.Applied(0)
	}
	return false
}

// Helper has no caller outside tests.
func Helper() int { return Helper2() + 1 }

// Helper2 is called by Helper only.
func Helper2() int { return 1 }
`
	const libTest = `package lib

import "testing"

func TestHelper(t *testing.T) { _ = Helper() }
`
	const cmd = `package main

import "fixmod/internal/lib"

func main() { _, _ = lib.Describe(lib.T{}), lib.Settle(lib.S{}) }
`
	caller := func(pkg string) string {
		return "package " + pkg + "\n\nimport \"fixmod/internal/lib\"\n\nfunc Use() int { return lib.Helper() }\n"
	}
	// The knobs of LimitConfig: cmd/limit sets Max; a test sets Window,
	// which Limit defaults and limiter.retarget rewrites through its
	// receiver; reflection decodes Name; and only the type's own
	// defaulting method writes Burst.
	const config = `package lib

import "time"

// LimitConfig tunes Limit.
type LimitConfig struct {
	Max    int
	Window time.Duration
	Name   string ` + "`json:\"name\"`" + `
	Burst  int
}

func (c *LimitConfig) applyDefaults() {
	if c.Burst == 0 {
		c.Burst = 4
	}
}

// Limit reads every knob.
func Limit(c LimitConfig) int {
	c.applyDefaults()
	if c.Window == 0 {
		c.Window = time.Second
	}
	return c.Max + int(c.Window) + len(c.Name) + c.Burst
}

type limiter struct{ cfg LimitConfig }

func (l *limiter) retarget(w time.Duration) int {
	l.cfg.Window = w
	return Limit(l.cfg)
}
`
	knobs := func(extra map[string]string) map[string]string {
		files := map[string]string{
			"internal/lib/config.go":      config,
			"internal/lib/config_test.go": "package lib\n\nvar _ = Limit(LimitConfig{Window: 1})\n",
			"cmd/limit/main.go":           "package main\n\nimport \"fixmod/internal/lib\"\n\nfunc main() { _ = lib.Limit(lib.LimitConfig{Max: 1}) }\n",
		}
		for name, src := range extra {
			files[name] = src
		}
		return files
	}
	cases := []struct {
		name  string
		extra map[string]string
		want  []string
	}{
		// T.Name (a named interface) and S.Applied (an anonymous one)
		// are reached only through interfaces, and Helper2 only through
		// Helper: none of them is flagged.
		{"a function called only from a _test.go is flagged, interface methods are not", nil,
			[]string{"fixmod/internal/lib.Helper is exported, but no code outside tests uses it"}},
		{"types, vars and consts are held to the same rule",
			map[string]string{
				"internal/lib/extra.go": "package lib\n\n// Box is named only by a test.\ntype Box struct{}\n\n" +
					"// Limit is named by Table, so it stands until Table goes.\nconst Limit = 3\n\n// Table is named only by a test.\nvar Table = []int{Limit}\n\n" +
					"// Kept is named by cmd/kept.\nconst Kept = 1\n",
				"internal/lib/extra_test.go": "package lib\n\nvar _, _ = Box{}, Table\n",
				"cmd/kept/kept.go":           "package main\n\nimport \"fixmod/internal/lib\"\n\nfunc main() { _ = lib.Kept }\n",
			},
			[]string{"lib.Box is exported", "lib.Table is exported", "lib.Helper is exported"}},
		{"a caller in examples/ clears it",
			map[string]string{"examples/demo/demo.go": caller("demo")}, nil},
		{"a caller in cmd/ clears it",
			map[string]string{"cmd/other/other.go": caller("other")}, nil},
		{"a caller in envtest does not",
			map[string]string{"internal/envtest/envtest.go": caller("envtest")},
			[]string{"lib.Helper is exported"}},
		{"a caller in a nested module does not",
			map[string]string{"bench/go.mod": "module fixmod/bench\n", "bench/bench.go": caller("bench")},
			[]string{"lib.Helper is exported"}},
		{"an anonymous interface of another signature does not clear a method",
			map[string]string{"internal/lib/lib.go": strings.NewReplacer(
				"interface{ Applied(int) bool }", "interface{ Applied(string) bool }",
				"a.Applied(0)", `a.Applied("")`).Replace(lib)},
			[]string{"lib.S.Applied is exported", "lib.Helper is exported"}},
		{"a knob only a test sets is reported; a tagged one is not, and neither a default nor a write through a receiver counts",
			knobs(nil),
			[]string{"lib.LimitConfig.Window is exported, but no code outside tests sets it",
				"lib.LimitConfig.Burst is exported, but no code outside tests sets it", "lib.Helper is exported"}},
		{"an assignment, an inc/dec or &x.F in cmd/ sets a knob",
			knobs(map[string]string{"cmd/limit/main.go": "package main\n\nimport \"fixmod/internal/lib\"\n\n" +
				"func main() {\n\tvar c lib.LimitConfig\n\tc.Max = 1\n\tc.Burst++\n\tw := &c.Window\n\t*w = 2\n\t_ = lib.Limit(c)\n}\n"}),
			[]string{"lib.Helper is exported"}},
		{"a positional literal in examples/ sets every knob",
			knobs(map[string]string{"examples/limit/main.go": "package main\n\nimport \"fixmod/internal/lib\"\n\n" +
				"func main() { _ = lib.Limit(lib.LimitConfig{1, 2, \"n\", 3}) }\n"}),
			[]string{"lib.Helper is exported"}},
		{"a keyed element of a slice of pointers written {...} sets its knobs",
			knobs(map[string]string{"cmd/limit/main.go": "package main\n\nimport \"fixmod/internal/lib\"\n\n" +
				"func main() {\n\tfor _, c := range []*lib.LimitConfig{{Max: 1, Window: 2, Burst: 3}} {\n\t\t_ = lib.Limit(*c)\n\t}\n}\n"}),
			[]string{"lib.Helper is exported"}},
		{"a positional element of a map of pointers sets every knob",
			knobs(map[string]string{"examples/limit/main.go": "package main\n\nimport \"fixmod/internal/lib\"\n\n" +
				"func main() { _ = lib.Limit(*map[string]*lib.LimitConfig{\"a\": {1, 2, \"n\", 3}}[\"a\"]) }\n"}),
			[]string{"lib.Helper is exported"}},
		{"a knob suppression keeps it, and a stale one is a finding",
			knobs(map[string]string{"internal/lib/config.go": strings.NewReplacer(
				"\tWindow", "\t//progmp:ignore testonly the fixture test needs it\n\tWindow",
				"\tMax", "\t//progmp:ignore testonly Max is set by cmd/limit\n\tMax").Replace(config)}),
			[]string{"//progmp:ignore testonly suppresses nothing",
				"lib.LimitConfig.Burst is exported", "lib.Helper is exported"}},
		{"a suppression keeps it, and a stale one is a finding",
			map[string]string{"internal/lib/lib.go": strings.NewReplacer(
				"func Helper()", "//progmp:ignore testonly the fixture keeps it\nfunc Helper()",
				"func Describe(", "//progmp:ignore testonly Describe has a caller\nfunc Describe(").Replace(lib)},
			[]string{"//progmp:ignore testonly suppresses nothing"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/lib/lib.go":      lib,
				"internal/lib/lib_test.go": libTest,
				"cmd/tool/main.go":         cmd,
			}
			for name, src := range tc.extra {
				files[name] = src
			}
			expect(t, runModuleFixture(t, files, "internal/lib", "testonly"), tc.want...)
		})
	}

	// The module root package is the API that ships: cmd/, examples/
	// and internal/ are its callers, and its own _test.go files are
	// test code.
	rootCaller := func(pkg string) string {
		return "package " + pkg + "\n\nimport \"fixmod\"\n\nfunc Use() int { return fixmod.Dial() }\n"
	}
	rootCases := []struct {
		name  string
		extra map[string]string
		want  []string
	}{
		{"a root export used only by a root _test.go is flagged", nil,
			[]string{"fixmod.Dial is exported, but no code outside tests uses it"}},
		{"a root caller in examples/ clears it",
			map[string]string{"examples/demo/demo.go": rootCaller("main")}, nil},
		{"a root caller in cmd/ clears it",
			map[string]string{"cmd/other/other.go": rootCaller("main")}, nil},
		{"a root caller in internal/ clears it",
			map[string]string{"internal/use/use.go": rootCaller("use")}, nil},
	}
	for _, tc := range rootCases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"fixmod.go":      "package fixmod\n\n// Dial is the API's entry point.\nfunc Dial() int { return 1 }\n",
				"fixmod_test.go": "package fixmod\n\nimport \"testing\"\n\nfunc TestDial(t *testing.T) { _ = Dial() }\n",
			}
			for name, src := range tc.extra {
				files[name] = src
			}
			expect(t, runModuleFixture(t, files, ".", "testonly"), tc.want...)
		})
	}

	// State needs a reader in non-test code. Observe is the only reader
	// of addr (&m.addr), clock (a method call on m.clock) and depth
	// (promoted through the embedded frame); it only writes hits,
	// tested and Total. The tagged Name, the blank field and the
	// embedded frame are exempt.
	const meter = `package meter

// Meter keeps what it measured.
type Meter struct {
	hits   int
	Total  int
	tested int
	addr   int
	clock  clock
	frame
	Name string ` + "`json:\"name\"`" + `
	_    int
}

type clock struct{ tick int }

func (c *clock) now() int { return c.tick }

type frame struct{ depth int }

// Observe records one observation.
func (m *Meter) Observe() int {
	m.hits++
	m.tested = 1
	m.Total += 2
	p := &m.addr
	return *p + m.clock.now() + m.depth
}
`
	const meterTest = "package meter\n\nfunc tested(m *Meter) int { return m.tested }\n"
	reader := "package main\n\nimport \"fixmod/internal/meter\"\n\nfunc main() {\n\tvar m meter.Meter\n\t_ = m.Observe() + m.Total\n}\n"
	fieldCases := []struct {
		name  string
		extra map[string]string
		want  []string
	}{
		{"a field only written, or read only by a _test.go, is reported; &x.F, a method call and a promotion read", nil,
			[]string{"meter.Meter.hits is a field, but no code outside tests reads it",
				"meter.Meter.Total is a field, but no code outside tests reads it",
				"meter.Meter.tested is a field, but no code outside tests reads it"}},
		{"a read in cmd/ clears a field",
			map[string]string{"cmd/meter/main.go": reader},
			[]string{"meter.Meter.hits is a field", "meter.Meter.tested is a field"}},
		{"a read in examples/ clears a field",
			map[string]string{"examples/meter/main.go": reader},
			[]string{"meter.Meter.hits is a field", "meter.Meter.tested is a field"}},
		{"without its one read, each of those fields is reported, and an untagged Name too",
			map[string]string{"internal/meter/meter.go": strings.NewReplacer(
				"p := &m.addr\n\treturn *p + m.clock.now() + m.depth", "return 0",
				"Name string `json:\"name\"`", "Name string").Replace(meter)},
			[]string{"meter.Meter.hits is a field", "meter.Meter.Total is a field", "meter.Meter.tested is a field",
				"meter.Meter.addr is a field", "meter.Meter.clock is a field", "meter.Meter.Name is a field",
				"meter.frame.depth is a field"}},
		{"a field suppression keeps it, and a stale one is a finding",
			map[string]string{"internal/meter/meter.go": strings.NewReplacer(
				"\thits", "\t//progmp:ignore testonly the fixture keeps it\n\thits",
				"\taddr", "\t//progmp:ignore testonly Observe reads it\n\taddr").Replace(meter)},
			[]string{"meter.Meter.Total is a field", "meter.Meter.tested is a field",
				"//progmp:ignore testonly suppresses nothing"}},
	}
	for _, tc := range fieldCases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/meter/meter.go":      meter,
				"internal/meter/meter_test.go": meterTest,
				"cmd/tool/main.go":             "package main\n\nimport \"fixmod/internal/meter\"\n\nfunc main() { _ = new(meter.Meter).Observe() }\n",
			}
			for name, src := range tc.extra {
				files[name] = src
			}
			expect(t, runModuleFixture(t, files, "internal/meter", "testonly"), tc.want...)
		})
	}
}

// TestRepositoryIsAnalyzeClean is the self-check: `go test ./tools/...`
// fails if any package in the module has an outstanding finding, so the
// tree cannot drift from the invariants between CI runs.
func TestRepositoryIsAnalyzeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is slow; skipped in -short")
	}
	suite, err := NewSuite(".")
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	pkgs, err := suite.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := suite.Run(pkgs, nil)
	if len(diags) > 0 {
		t.Errorf("repository has %d outstanding findings:\n%s", len(diags), render(diags))
	}
}
