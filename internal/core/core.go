// Package core assembles the ProgMP runtime environment: it loads
// scheduler specifications, manages the three execution back-ends
// (interpreter, compiled closures, bytecode VM), keeps a registry of
// named schedulers for reuse across connections, caches VM programs
// specialized for a constant subflow count with generic fallback, and
// exposes proc-style execution statistics (§4.1 of the paper).
//
// Unlike the paper's JIT, which compiles a specialization concurrently
// in a separate thread, a specialization miss here compiles in line
// and runs the new program in the same execution: in virtual time the
// compile costs nothing either way, and the in-line miss keeps every
// run's decisions and traces reproducible.
package core

import (
	"fmt"
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
	//progmp:ignore testonly bench/exec.go reads it (vm.steps_per_decision)
	Executions int64
	// Steps is the total executed VM instructions, collected only
	// while step counting is enabled (EnableStepMetrics).
	//progmp:ignore testonly bench/exec.go reads it (vm.steps_per_decision)
	Steps int64
}

// Metric names used by the per-scheduler registry. vm.generic_execs
// counts VM executions that ran the generic program: more subflows
// than runtime.MaxSubflows, a specialization that failed to compile,
// or a specialized execution that failed and fell back.
// sched.fallback_errors counts executions where even the generic
// program failed (step-budget overrun or verifier-escaping fault) and
// whose actions were discarded. Both stay 0 on the non-VM back-ends.
const (
	MetricExecutions     = "sched.executions"
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

	// Specialization cache: subflow count → compiled program, one slot
	// per count. A miss compiles in line under mu and installs the
	// program with one Store, so the execution fast path is one
	// lock-free load and each count compiles exactly once.
	mu          sync.Mutex
	specialized [runtime.MaxSubflows + 1]atomic.Pointer[vm.Program]
	// stepCounting (guarded by mu) wires mSteps into every program
	// specialized after EnableStepMetrics.
	stepCounting bool

	// metrics is the scheduler's registry (§4.1 proc interface);
	// the hot path touches only the pre-resolved handles below.
	metrics       *obs.Registry
	mExecutions   *obs.Counter
	mGenericExec  *obs.Counter
	mSpecialized  *obs.Counter
	mFallbackErrs *obs.Counter
	mSteps        *obs.Counter

	// Optional trace sink for execution faults. Set before traffic
	// starts (like EnableStepMetrics); nil leaves fault tracing off.
	tracer   *obs.Tracer
	traceNow func() time.Duration

	// report is the static-analysis report from admission: warnings and
	// infos that did not block loading but are surfaced through tooling
	// (progmp-vet, ctl compile, the guard's quarantine trace).
	report *analysis.Report
	// cert is the report's quiescence certificate, stamped on every Env
	// the scheduler executes (see Exec).
	cert *runtime.Certificate
}

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
		name:    name,
		info:    info,
		backend: backend,
		metrics: obs.NewRegistry(),
		report:  report,
	}
	if report.Quiescence.N > 0 {
		s.cert = &report.Quiescence
	}
	s.mExecutions = s.metrics.Counter(MetricExecutions)
	s.mGenericExec = s.metrics.Counter(MetricGenericExecs)
	s.mSpecialized = s.metrics.Counter(MetricSpecCompiled)
	s.mFallbackErrs = s.metrics.Counter(MetricFallbackErrors)
	s.mSteps = s.metrics.Counter(MetricSteps)
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
//
//progmp:ignore testonly the tests of seven packages share it; envtest cannot, because core imports packages whose tests import envtest
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

// AnalysisReport returns the static-analysis report recorded at
// admission (never nil for a loaded scheduler).
func (s *Scheduler) AnalysisReport() *analysis.Report { return s.report }

// AdmissionWarnings returns the number of analyzer warnings the
// program carried when it was admitted. The guard stamps this into
// quarantine trace events so operators can see whether a misbehaving
// scheduler was flagged before it ever ran.
func (s *Scheduler) AdmissionWarnings() int { return s.report.Warnings() }

// SetSynchronousSpecialization does nothing: specialization always
// compiles in line.
//
// Deprecated: callers can drop the call.
//
//progmp:ignore testonly only bench/ calls it; ROADMAP item 3 drops those calls, then this goes
func (s *Scheduler) SetSynchronousSpecialization(bool) {}

// Exec runs one scheduler execution against env and counts it.
// It stamps the program's quiescence certificate on env: the
// connection checks the stamp before its next snapshot and skips the
// execution while the certificate holds.
//
//progmp:hotpath
//progmp:deterministic
func (s *Scheduler) Exec(env *runtime.Env) {
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
}

func (s *Scheduler) execVM(env *runtime.Env) {
	n := len(env.SubflowViews)
	// Lock-free fast path: in steady state every execution is a hit in
	// the specialization cache.
	var prog *vm.Program
	if n <= runtime.MaxSubflows {
		prog = s.specialized[n].Load()
	}
	if prog == nil {
		//progmp:ignore hotpath cold miss path: compiles once per program and subflow count
		prog = s.specializationMiss(n)
	}
	if prog == nil {
		prog = s.vmProg
		// A generic-program run is a specialization miss; hits are
		// derived (executions - generic_execs), so the specialized
		// fast path pays no extra bookkeeping.
		s.mGenericExec.Add(1)
	}
	if prog.Exec(env) != nil {
		// Specialization mismatch or step-budget overrun: fall back to
		// the generic program ("returns to the original version").
		env.Actions = env.Actions[:0]
		if prog == s.vmProg {
			// The generic program itself failed; re-running it would
			// fail identically, so record the fault and execute nothing.
			//progmp:ignore hotpath,deterministic cold fault path: executions only fail on budget overrun or mismatch
			s.noteFallbackError()
			return
		}
		s.mGenericExec.Add(1)
		if s.vmProg.Exec(env) != nil {
			// The safety net failed too. Discard the partial action
			// queue (termination guarantee: a failed execution has no
			// effects) and surface the fault instead of swallowing it.
			env.Actions = env.Actions[:0]
			//progmp:ignore hotpath,deterministic cold fault path: double execution failure
			s.noteFallbackError()
		}
	}
}

// specializationMiss handles the slow path of execVM: under mu it
// re-checks the slot for n and, if it is still empty, compiles and
// installs the specialization, so a concurrent misser waits for the
// program instead of running the generic one. It returns the program
// to run, or nil to use the generic one (n out of range or a failed
// compile).
func (s *Scheduler) specializationMiss(n int) *vm.Program {
	if n < 0 || n > runtime.MaxSubflows {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prog := s.specialized[n].Load(); prog != nil {
		return prog
	}
	p, err := vm.Compile(s.info, vm.Options{SubflowCount: n})
	if err != nil {
		return nil
	}
	if s.stepCounting {
		p.StepCounter = s.mSteps
	}
	s.specialized[n].Store(p)
	s.mSpecialized.Add(1)
	return p
}

// noteFallbackError records a generic-program execution failure in the
// sched.fallback_errors metric and the fault trace (when attached).
func (s *Scheduler) noteFallbackError() {
	s.mFallbackErrs.Add(1)
	if t := s.tracer; t != nil {
		var at time.Duration
		if s.traceNow != nil {
			at = s.traceNow()
		}
		t.Record(obs.Event{At: at, Kind: obs.EvSchedFallback, Seq: -1, Sbf: -1})
	}
}

// InstrumentTrace attaches a trace sink (and virtual clock) for
// execution faults such as generic-fallback failures. Call it before
// traffic starts; either argument may be nil.
func (s *Scheduler) InstrumentTrace(t *obs.Tracer, now func() time.Duration) {
	s.tracer = t
	s.traceNow = now
}

// EnableStepMetrics turns on per-execution VM instruction counting
// into the MetricSteps counter. Off by default so the VM exit path
// pays only an inlined nil check. Call it before traffic starts:
// wiring the counter while executions are in flight is racy.
//
//progmp:ignore testonly only bench/ calls it (vm.steps_per_decision); ROADMAP item 3 decides its fate
func (s *Scheduler) EnableStepMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepCounting = true
	if s.vmProg != nil {
		s.vmProg.StepCounter = s.mSteps
	}
	for i := range s.specialized {
		if p := s.specialized[i].Load(); p != nil {
			p.StepCounter = s.mSteps
		}
	}
}

// Stats returns a snapshot of the cumulative statistics.
//
//progmp:ignore testonly only bench/ reads it (vm.steps_per_decision); ROADMAP item 3 decides its fate
func (s *Scheduler) Stats() Stats {
	return Stats{
		Executions: s.mExecutions.Value(),
		Steps:      s.mSteps.Value(),
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
		for i := range s.specialized {
			if p := s.specialized[i].Load(); p != nil {
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
