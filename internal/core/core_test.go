package core

import (
	"testing"
	"time"
	"unsafe"

	"progmp/internal/envtest"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

const minRTT = `IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
	SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
}`

func TestLoadRejectsBadPrograms(t *testing.T) {
	if _, err := Load("bad", "VAR x = ;", BackendVM); err == nil {
		t.Error("Load accepted a syntax error")
	}
	if _, err := Load("bad", "VAR x = y;", BackendVM); err == nil {
		t.Error("Load accepted a type error")
	}
}

func TestSchedulerExecAndStats(t *testing.T) {
	for _, backend := range []Backend{BackendInterpreter, BackendCompiled, BackendVM} {
		s := MustLoad("minRTT", minRTT, backend)
		env := envtest.TwoSubflowEnv(3)
		s.Exec(env)
		s.Exec(env)
		if st := s.Stats(); st.Executions != 2 {
			t.Errorf("%s: executions = %d, want 2", backend, st.Executions)
		}
		pushes, pops := 0, 0
		for _, a := range env.Actions {
			switch a.Kind {
			case runtime.ActionPush:
				pushes++
			case runtime.ActionPop:
				pops++
			}
		}
		if pushes != 2 || pops != 2 {
			t.Errorf("%s: pushes=%d pops=%d, want 2 and 2", backend, pushes, pops)
		}
	}
}

func TestVMSpecializationCacheAndFallback(t *testing.T) {
	s := MustLoad("minRTT", minRTT, BackendVM)
	// Execute with 2 subflows (specializes for 2), then 0 subflows
	// (specializes for 0): both must behave correctly.
	env2 := envtest.TwoSubflowEnv(1)
	s.Exec(env2)
	if envtest.PushCount(env2) != 1 {
		t.Errorf("2-subflow exec pushed %d, want 1", envtest.PushCount(env2))
	}
	env0 := envtest.EnvSpec{Q: []envtest.PktSpec{{Seq: 0}}}.Build()
	s.Exec(env0)
	if envtest.PushCount(env0) != 0 {
		t.Errorf("0-subflow exec must not push")
	}
	nSpecialized := 0
	for n := range s.specialized {
		if s.specialized[n].Load() != nil {
			nSpecialized++
		}
	}
	if nSpecialized != 2 {
		t.Errorf("specialization cache has %d entries, want 2", nSpecialized)
	}
}

func TestMemoryFootprint(t *testing.T) {
	s := MustLoad("minRTT", minRTT, BackendVM)
	got := s.MemoryFootprint()
	if got <= 0 || got > 64<<10 {
		t.Errorf("MemoryFootprint = %d, want a small positive number", got)
	}
	if InstanceFootprint() <= 0 {
		t.Errorf("InstanceFootprint must be positive")
	}
}

// TestMemoryFootprintCountsLoadedObjects pins §4.3's arithmetic on the
// corpus's round robin: the source bytes, then 16 B per instruction
// (TestInstrIs16Bytes) and 8 B per spill slot of the generic program
// and of each specialization once an execution compiles it. An
// instance is the connection's register file and its arena.
func TestMemoryFootprintCountsLoadedObjects(t *testing.T) {
	src := schedlib.All["roundRobin"]
	s := MustLoad("roundRobin", src, BackendVM)
	want := len(src) + 16*len(s.vmProg.Insns) + 8*s.vmProg.SpillSlots
	if got := s.MemoryFootprint(); got != want {
		t.Errorf("loaded: MemoryFootprint = %d, want %d", got, want)
	}
	s.Exec(envtest.TwoSubflowEnv(1))
	p := s.specialized[2].Load()
	if p == nil {
		t.Fatal("a 2-subflow execution compiled no specialization")
	}
	want += 16*len(p.Insns) + 8*p.SpillSlots
	if got := s.MemoryFootprint(); got != want {
		t.Errorf("specialized for 2: MemoryFootprint = %d, want %d", got, want)
	}
	if got, want := InstanceFootprint(), 8*runtime.NumRegisters+int(unsafe.Sizeof(runtime.Arena{})); got != want {
		t.Errorf("InstanceFootprint = %d, want %d", got, want)
	}
}

func TestConcurrentExecIsSafe(t *testing.T) {
	s := MustLoad("minRTT", minRTT, BackendVM)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				env := envtest.TwoSubflowEnv(2)
				s.Exec(env)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := s.Stats().Executions; got != 1600 {
		t.Errorf("executions = %d, want 1600", got)
	}
	// Concurrent missers wait for the one in-line compile instead of
	// running the generic program.
	if got := s.metrics.Counter(MetricSpecCompiled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricSpecCompiled, got)
	}
	if got := s.metrics.Counter(MetricGenericExecs).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricGenericExecs, got)
	}
}

// TestFallbackErrorsObservable sabotages both the two-subflow
// specialization and the generic VM program with an infinite loop, so
// the specialized execution and its generic fallback both exhaust the
// step budget, then checks the failure is counted, traced and surfaced
// — not silently swallowed.
func TestFallbackErrorsObservable(t *testing.T) {
	s := MustLoad("minRTT", minRTT, BackendVM)
	loop := []vm.Instr{{Op: vm.OpJmp, K: -1}}
	s.vmProg = &vm.Program{Insns: loop, SpecializedSubflows: -1}
	s.specialized[2].Store(&vm.Program{Insns: loop, SpecializedSubflows: 2})
	tracer := obs.NewTracer(16)
	s.InstrumentTrace(tracer, func() time.Duration { return 7 * time.Millisecond })

	env := envtest.TwoSubflowEnv(3)
	s.Exec(env)

	if len(env.Actions) != 0 {
		t.Errorf("failed execution left %d actions; must have no effects", len(env.Actions))
	}
	if got := s.metrics.Counter(MetricFallbackErrors).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFallbackErrors, got)
	}
	found := false
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.EvSchedFallback {
			found = true
			if ev.At != 7*time.Millisecond {
				t.Errorf("EvSchedFallback at %v, want 7ms (virtual clock)", ev.At)
			}
		}
	}
	if !found {
		t.Error("no EvSchedFallback event recorded")
	}
}

// Loading attaches the static-analysis report; a clean scheduler has a
// step bound and no admission warnings.
func TestLoadAttachesAnalysisReport(t *testing.T) {
	s, err := Load("minrtt", minRTT, BackendInterpreter)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.AnalysisReport()
	if rep == nil {
		t.Fatal("AnalysisReport() = nil")
	}
	if rep.StepBoundAt <= 0 {
		t.Errorf("step bound missing: %q at %d", rep.StepBound, rep.StepBoundAt)
	}
	if s.AdmissionWarnings() != 0 {
		t.Errorf("AdmissionWarnings = %d for a clean scheduler:\n%s", s.AdmissionWarnings(), rep)
	}
}

// A scheduler admitted with warnings keeps them on the report; the
// guard reads AdmissionWarnings when it quarantines.
func TestLoadKeepsAdmissionWarnings(t *testing.T) {
	s, err := Load("nopush", `SET(R1, R1 + 1);`, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if s.AdmissionWarnings() == 0 {
		t.Errorf("no-push scheduler admitted without warnings:\n%s", s.AnalysisReport())
	}
}

// Front-end failures surface through Load as errors (the analyzer
// re-expresses them with rule ids for the ctl layer).
func TestLoadRejectsCheckerErrors(t *testing.T) {
	if _, err := Load("bad", `missing.PUSH(Q.TOP);`, BackendInterpreter); err == nil {
		t.Fatal("Load accepted a program with an undeclared identifier")
	}
}

// ParseBackend is the inverse of Backend.String for every back-end,
// also takes the control protocol's short "interp", and refuses the
// rest (including String's rendering of an out-of-range value).
func TestParseBackendRoundTrip(t *testing.T) {
	for _, be := range []Backend{BackendInterpreter, BackendCompiled, BackendVM} {
		got, err := ParseBackend(be.String())
		if err != nil || got != be {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", be.String(), got, err, be)
		}
	}
	if got, err := ParseBackend("interp"); err != nil || got != BackendInterpreter {
		t.Errorf(`ParseBackend("interp") = %v, %v; want interpreter`, got, err)
	}
	for _, name := range []string{"", "VM", "native", Backend(7).String()} {
		if _, err := ParseBackend(name); err == nil {
			t.Errorf("ParseBackend(%q) accepted an unknown back-end", name)
		}
	}
}
