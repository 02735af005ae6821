// Package core assembles the ProgMP runtime environment: it loads
// scheduler specifications, manages the three execution back-ends
// (interpreter, compiled closures, bytecode VM), keeps a registry of
// named schedulers for reuse across connections, caches VM programs
// specialized for a constant subflow count with generic fallback, and
// exposes proc-style execution statistics (§4.1 of the paper).
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"progmp/internal/analysis"
	"progmp/internal/compile"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

// Backend selects the execution environment for a scheduler.
type Backend int

// The three execution back-ends of §4.1.
const (
	// BackendInterpreter walks the AST directly (alternative 1).
	BackendInterpreter Backend = iota
	// BackendCompiled executes ahead-of-time compiled closures
	// (alternative 2, the generated-C analogue).
	BackendCompiled
	// BackendVM executes eBPF-flavoured bytecode with runtime
	// specialization (alternative 3).
	BackendVM
)

// String names the back-end.
func (b Backend) String() string {
	switch b {
	case BackendInterpreter:
		return "interpreter"
	case BackendCompiled:
		return "compiled"
	case BackendVM:
		return "vm"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend is the inverse of Backend.String: it resolves a
// back-end name as every CLI flag and the control protocol spell it
// ("interp" is the protocol's short form of "interpreter").
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "interpreter", "interp":
		return BackendInterpreter, nil
	case "compiled":
		return BackendCompiled, nil
	case "vm":
		return BackendVM, nil
	}
	return 0, fmt.Errorf("unknown backend %q (vm, compiled, interpreter)", name)
}

// Stats are cumulative execution statistics, the analogue of the
// paper's proc-based debugging and performance interface. They are a
// snapshot view over the scheduler's metrics registry (package obs),
// which keeps the authoritative counters.
type Stats struct {
	Executions int64
	Pushes     int64
	Pops       int64
	Drops      int64
	// GenericExecs counts VM executions that ran the generic program
	// because no specialization was available yet (or specialization
	// fell back); Executions - GenericExecs is the specialization hit
	// count. Always 0 on the non-VM back-ends.
	GenericExecs int64
	// FallbackErrors counts executions where even the generic program
	// failed (step-budget overrun or verifier-escaping fault); the
	// execution's actions were discarded. Always 0 on the non-VM
	// back-ends.
	FallbackErrors int64
	// Steps is the total executed VM instructions, collected only
	// while step counting is enabled (EnableStepMetrics).
	Steps int64
}

// Metric names used by the per-scheduler registry.
const (
	MetricExecutions     = "sched.executions"
	MetricPushes         = "sched.pushes"
	MetricPops           = "sched.pops"
	MetricDrops          = "sched.drops"
	MetricFallbackErrors = "sched.fallback_errors"
	MetricGenericExecs   = "vm.generic_execs"
	MetricSpecCompiled   = "vm.specializations"
	MetricSteps          = "vm.steps"
)

// Scheduler is a loaded, executable scheduler program. It is safe for
// concurrent use: per-connection state (registers) lives in the
// environment, not the scheduler.
type Scheduler struct {
	name string
	info *types.Info

	backend  Backend
	interp   *interp.Interpreter
	compiled *compile.Compiled
	vmProg   *vm.Program // generic (unspecialized)

	// Specialization cache: subflow count → compiled program. A miss
	// runs the generic program and kicks off background compilation,
	// mirroring the paper's concurrent JIT ("the compilation is
	// executed concurrently in a separate thread, therefore not
	// harming network performance"). The cache is an immutable array
	// indexed by subflow count, swapped atomically on every install
	// (copy-on-write), so the execution fast path is one lock-free
	// load plus an array index; mu serializes writers and the
	// compiling set only.
	mu          sync.Mutex
	specialized atomic.Pointer[[runtime.MaxSubflows + 1]*vm.Program]
	compiling   map[int]bool
	// specializeSync forces synchronous specialization (tests).
	specializeSync bool

	// metrics is the scheduler's registry (§4.1 proc interface);
	// the hot path touches only the pre-resolved handles below.
	metrics       *obs.Registry
	mExecutions   *obs.Counter
	mPushes       *obs.Counter
	mPops         *obs.Counter
	mDrops        *obs.Counter
	mGenericExec  *obs.Counter
	mSpecialized  *obs.Counter
	mFallbackErrs *obs.Counter
	stepCounting  atomic.Bool

	// Optional trace sink for execution faults. Set before traffic
	// starts (like EnableStepMetrics); nil leaves fault tracing off.
	tracer   *obs.Tracer
	traceNow func() time.Duration

	// lastFallbackErr retains the most recent fallback failure for
	// diagnostics (the proc-style error surface).
	lastFallbackErr atomic.Pointer[fallbackErr]

	// report is the static-analysis report from admission: warnings and
	// infos that did not block loading but are surfaced through tooling
	// (progmp-vet, ctl compile, the guard's quarantine trace).
	report *analysis.Report
	// cert is the report's quiescence certificate, stamped on every Env
	// the scheduler executes (see Exec).
	cert *runtime.Certificate
}

type fallbackErr struct{ err error }

// Load parses, type-checks and compiles a scheduler specification for
// the given back-end.
func Load(name, src string, backend Backend) (*Scheduler, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: parsing scheduler %q: %w", name, err)
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("core: checking scheduler %q: %w", name, err)
	}
	// Static analysis runs before any back-end sees the program: hard
	// errors reject admission outright, warnings and infos ride along
	// on the scheduler for tooling and the control-plane gate.
	report := analysis.Analyze(info, analysis.Options{})
	if report.HasErrors() {
		return nil, fmt.Errorf("core: %w", &analysis.RejectError{Name: name, Report: report})
	}
	s := &Scheduler{
		name:      name,
		info:      info,
		backend:   backend,
		compiling: make(map[int]bool),
		metrics:   obs.NewRegistry(),
		report:    report,
	}
	if report.Quiescence.N > 0 {
		s.cert = &report.Quiescence
	}
	s.specialized.Store(new([runtime.MaxSubflows + 1]*vm.Program))
	s.mExecutions = s.metrics.Counter(MetricExecutions)
	s.mPushes = s.metrics.Counter(MetricPushes)
	s.mPops = s.metrics.Counter(MetricPops)
	s.mDrops = s.metrics.Counter(MetricDrops)
	s.mGenericExec = s.metrics.Counter(MetricGenericExecs)
	s.mSpecialized = s.metrics.Counter(MetricSpecCompiled)
	s.mFallbackErrs = s.metrics.Counter(MetricFallbackErrors)
	switch backend {
	case BackendInterpreter:
		s.interp = interp.New(info)
	case BackendCompiled:
		s.compiled = compile.New(info)
	case BackendVM:
		p, err := vm.Compile(info, vm.Options{SubflowCount: -1})
		if err != nil {
			return nil, fmt.Errorf("core: compiling scheduler %q to bytecode: %w", name, err)
		}
		s.vmProg = p
	default:
		return nil, fmt.Errorf("core: unknown backend %d", int(backend))
	}
	return s, nil
}

// MustLoad loads or panics; for embedded specifications.
func MustLoad(name, src string, backend Backend) *Scheduler {
	s, err := Load(name, src, backend)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the scheduler's registry name.
func (s *Scheduler) Name() string { return s.name }

// Backend returns the execution back-end.
func (s *Scheduler) Backend() Backend { return s.backend }

// Info exposes the type-checked program (for tooling).
func (s *Scheduler) Info() *types.Info { return s.info }

// Source returns the original specification text.
func (s *Scheduler) Source() string { return s.info.Prog.Source }

// AnalysisReport returns the static-analysis report recorded at
// admission (never nil for a loaded scheduler).
func (s *Scheduler) AnalysisReport() *analysis.Report { return s.report }

// AdmissionWarnings returns the number of analyzer warnings the
// program carried when it was admitted. The guard stamps this into
// quarantine trace events so operators can see whether a misbehaving
// scheduler was flagged before it ever ran.
func (s *Scheduler) AdmissionWarnings() int { return s.report.Warnings() }

// SetSynchronousSpecialization forces specialization to happen inline
// rather than in a background goroutine. Used by tests and benchmarks
// that need deterministic behaviour.
func (s *Scheduler) SetSynchronousSpecialization(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specializeSync = on
}

// Exec runs one scheduler execution against env and updates statistics.
// It stamps the program's quiescence certificate on env: the
// connection checks the stamp before its next snapshot and skips the
// execution while the certificate holds.
//
//progmp:hotpath
//progmp:deterministic
func (s *Scheduler) Exec(env *runtime.Env) {
	before := len(env.Actions)
	switch s.backend {
	case BackendInterpreter:
		s.interp.Exec(env)
	case BackendCompiled:
		s.compiled.Exec(env)
	case BackendVM:
		s.execVM(env)
	}
	env.Cert = s.cert
	s.mExecutions.Add(1)
	for _, a := range env.Actions[before:] {
		switch a.Kind {
		case runtime.ActionPush:
			s.mPushes.Add(1)
		case runtime.ActionPop:
			s.mPops.Add(1)
		case runtime.ActionDrop:
			s.mDrops.Add(1)
		}
	}
}

func (s *Scheduler) execVM(env *runtime.Env) {
	n := len(env.SubflowViews)
	// Lock-free fast path: in steady state every execution is a hit in
	// the immutable specialization cache.
	var prog *vm.Program
	if n <= runtime.MaxSubflows {
		prog = s.specialized.Load()[n]
	}
	if prog == nil {
		//progmp:ignore hotpath,deterministic cold miss path: deterministic runs use specializeSync; async installs change when the specialized program lands, never its semantics
		prog = s.specializationMiss(n)
	}
	if prog == nil {
		prog = s.vmProg
		// A generic-program run is a specialization miss; hits are
		// derived (executions - generic_execs), so the specialized
		// fast path pays no extra bookkeeping.
		s.mGenericExec.Add(1)
	}
	if err := prog.Exec(env); err != nil {
		// Specialization mismatch or step-budget overrun: fall back to
		// the generic program ("returns to the original version").
		env.Actions = env.Actions[:0]
		if prog == s.vmProg {
			// The generic program itself failed; re-running it would
			// fail identically, so record the fault and execute nothing.
			//progmp:ignore hotpath,deterministic cold fault path: executions only fail on budget overrun or mismatch
			s.noteFallbackError(err)
			return
		}
		s.mGenericExec.Add(1)
		if err := s.vmProg.Exec(env); err != nil {
			// The safety net failed too. Discard the partial action
			// queue (termination guarantee: a failed execution has no
			// effects) and surface the fault instead of swallowing it.
			env.Actions = env.Actions[:0]
			//progmp:ignore hotpath,deterministic cold fault path: double execution failure
			s.noteFallbackError(err)
		}
	}
}

// specializationMiss handles the slow path of execVM: it re-checks the
// cache under the writer lock and kicks off compilation for n (inline
// when synchronous specialization is forced). It returns the program to
// run, or nil to use the generic one.
func (s *Scheduler) specializationMiss(n int) *vm.Program {
	if n < 0 || n > runtime.MaxSubflows {
		return nil
	}
	s.mu.Lock()
	if prog := s.specialized.Load()[n]; prog != nil {
		s.mu.Unlock()
		return prog
	}
	if !s.compiling[n] {
		s.compiling[n] = true
		if s.specializeSync {
			s.mu.Unlock()
			s.specialize(n)
			return s.specialized.Load()[n]
		}
		go s.specialize(n)
	}
	s.mu.Unlock()
	return nil
}

// noteFallbackError records a generic-program execution failure in the
// sched.fallback_errors metric, the fault trace (when attached) and the
// last-error diagnostic slot.
func (s *Scheduler) noteFallbackError(err error) {
	s.mFallbackErrs.Add(1)
	s.lastFallbackErr.Store(&fallbackErr{err: err})
	if t := s.tracer; t != nil {
		var at time.Duration
		if s.traceNow != nil {
			at = s.traceNow()
		}
		t.Record(obs.Event{At: at, Kind: obs.EvSchedFallback, Seq: -1, Sbf: -1})
	}
}

// LastFallbackError returns the most recent generic-program execution
// failure, or nil when every execution succeeded.
func (s *Scheduler) LastFallbackError() error {
	if fe := s.lastFallbackErr.Load(); fe != nil {
		return fe.err
	}
	return nil
}

// InstrumentTrace attaches a trace sink (and virtual clock) for
// execution faults such as generic-fallback failures. Call it before
// traffic starts; either argument may be nil.
func (s *Scheduler) InstrumentTrace(t *obs.Tracer, now func() time.Duration) {
	s.tracer = t
	s.traceNow = now
}

func (s *Scheduler) specialize(n int) {
	p, err := vm.Compile(s.info, vm.Options{SubflowCount: n})
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.compiling, n)
	if err == nil {
		if s.stepCounting.Load() {
			p.StepCounter = s.metrics.Counter(MetricSteps)
		}
		s.installSpecialized(n, p)
		s.mSpecialized.Add(1)
	}
}

// installSpecialized publishes count → p with a copy-on-write swap.
// Callers must hold mu.
func (s *Scheduler) installSpecialized(n int, p *vm.Program) {
	if n < 0 || n > runtime.MaxSubflows {
		return
	}
	next := *s.specialized.Load()
	next[n] = p
	s.specialized.Store(&next)
}

// Metrics exposes the scheduler's metrics registry (the §4.1
// proc-style statistics surface).
func (s *Scheduler) Metrics() *obs.Registry { return s.metrics }

// EnableStepMetrics turns on per-execution VM instruction counting
// into the MetricSteps counter. Off by default so the VM exit path
// pays only an inlined nil check. Call it before traffic starts:
// wiring the counter while executions are in flight is racy.
func (s *Scheduler) EnableStepMetrics() {
	s.stepCounting.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	steps := s.metrics.Counter(MetricSteps)
	if s.vmProg != nil {
		s.vmProg.StepCounter = steps
	}
	for _, p := range s.specialized.Load() {
		if p != nil {
			p.StepCounter = steps
		}
	}
}

// Stats returns a snapshot of the cumulative statistics.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Executions:     s.mExecutions.Value(),
		Pushes:         s.mPushes.Value(),
		Pops:           s.mPops.Value(),
		Drops:          s.mDrops.Value(),
		GenericExecs:   s.mGenericExec.Value(),
		FallbackErrors: s.mFallbackErrs.Value(),
		Steps:          s.metrics.Counter(MetricSteps).Value(),
	}
}

// MemoryFootprint estimates the resident bytes of the loaded scheduler
// program: specification text, bytecode, and compiled structures. The
// paper reports ~3048 B for the round-robin scheduler program (§4.3).
func (s *Scheduler) MemoryFootprint() int {
	total := len(s.info.Prog.Source)
	total += s.info.NumSlots * 16
	if s.vmProg != nil {
		total += len(s.vmProg.Insns) * int(unsafe.Sizeof(vm.Instr{}))
		for _, p := range s.specialized.Load() {
			if p != nil {
				total += len(p.Insns) * int(unsafe.Sizeof(vm.Instr{}))
			}
		}
	}
	// AST and analysis structures, approximated per statement.
	total += len(s.info.Prog.Stmts) * 96
	total += len(s.info.ExprTypes) * 24
	return total
}

// InstanceFootprint estimates per-connection bytes of one scheduler
// instantiation: the register file plus per-instance bookkeeping. The
// paper reports 328 B per instantiation (§4.3).
func InstanceFootprint() int {
	return runtime.NumRegisters*8 + 264
}

// ---- Registry ----

// ErrNotFound reports a lookup of an unknown scheduler name.
var ErrNotFound = errors.New("core: scheduler not found")

// ErrExists reports loading a scheduler under a name already taken.
var ErrExists = errors.New("core: scheduler already loaded")

// Registry holds loaded schedulers by name so applications can reuse
// them across connections "to reduce compilation overhead" (§3.2).
// The zero value is ready to use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Scheduler
}

// Load parses and registers a scheduler under name. Loading an
// already-registered name fails with ErrExists.
func (r *Registry) Load(name, src string, backend Backend) (*Scheduler, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	s, err := Load(name, src, backend)
	if err != nil {
		return nil, err
	}
	if r.m == nil {
		r.m = make(map[string]*Scheduler)
	}
	r.m[name] = s
	return s, nil
}

// Get returns the scheduler registered under name.
func (r *Registry) Get(name string) (*Scheduler, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return s, nil
}

// Remove unregisters name. Connections already using the scheduler
// keep their reference.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.m, name)
	return nil
}

// Names lists registered scheduler names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
