package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

// OverheadBackends are the rows of Fig. 9 top: the native reference
// implementation ("C-based default scheduler") and the three runtime
// back-ends for the semantically equivalent specification.
var OverheadBackends = []string{"native", "interpreter", "compiled", "vm"}

// OverheadResult is one cell of the Fig. 9 execution-time comparison.
type OverheadResult struct {
	Backend  string
	Subflows int
	NsPerOp  float64
	// RelativeToNative is NsPerOp / native NsPerOp at the same subflow
	// count (the paper reports ~144% interpreter, ~125% eBPF).
	RelativeToNative float64
}

// overheadEnv builds the measurement environment: a filled send queue
// and saturated-but-available subflows, so the default scheduler does
// real selection work on every execution.
func overheadEnv(subflows int) *runtime.Env {
	spec := envtest.EnvSpec{}
	for i := 0; i < subflows; i++ {
		spec.Subflows = append(spec.Subflows, envtest.SbfSpec{
			ID: i, RTT: int64(10000 + i*7000), RTTVar: 500, Cwnd: 64, InFlight: int64(i % 3),
		})
	}
	for i := 0; i < 4; i++ {
		spec.Q = append(spec.Q, envtest.PktSpec{Seq: int64(i)})
	}
	for i := 4; i < 6; i++ {
		spec.QU = append(spec.QU, envtest.PktSpec{Seq: int64(i), SentOn: []int{0}})
	}
	return spec.Build()
}

// rawVM runs the bare bytecode program, without the core wrapper's
// stats and specialization cache: the closest analogue of the paper's
// JIT-compiled code path. It keeps the first execution error.
type rawVM struct {
	p   *vm.Program
	err error
}

func (r *rawVM) Exec(env *runtime.Env) {
	if err := r.p.Exec(env); err != nil && r.err == nil {
		r.err = err
	}
}

// rawVMFor compiles the default scheduler to bytecode specialized to
// the subflow count.
func rawVMFor(subflows int) (*rawVM, error) {
	prog, err := lang.Parse(schedlib.MinRTT)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, err
	}
	p, err := vm.Compile(info, vm.Options{SubflowCount: subflows})
	if err != nil {
		return nil, err
	}
	return &rawVM{p: p}, nil
}

// schedulerFor returns the default scheduler on the requested back-end.
func schedulerFor(backend string) (mptcp.Scheduler, error) {
	if backend == "native" {
		return sched.MinRTT{}, nil
	}
	be, err := core.ParseBackend(backend)
	if err != nil {
		return nil, err
	}
	s, err := core.Load("minRTT", schedlib.MinRTT, be)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ExecutionOverhead reproduces Fig. 9 top: per-execution times of the
// default scheduler across back-ends with 2 and 4 subflows, and of the
// bare VM program (vm-raw).
func ExecutionOverhead(iters int) ([]OverheadResult, error) {
	var out []OverheadResult
	for _, subflows := range []int{2, 4} {
		nativeNs := 0.0
		for _, backend := range slices.Concat(OverheadBackends, []string{"vm-raw"}) {
			var s mptcp.Scheduler
			var err error
			if backend == "vm-raw" {
				s, err = rawVMFor(subflows)
			} else {
				s, err = schedulerFor(backend)
			}
			if err != nil {
				return nil, err
			}
			env := overheadEnv(subflows)
			// Warm-up (triggers VM specialization).
			for i := 0; i < 100; i++ {
				env.Reset()
				s.Exec(env)
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				env.Reset()
				s.Exec(env)
			}
			elapsed := time.Since(start)
			if raw, ok := s.(*rawVM); ok && raw.err != nil {
				return nil, fmt.Errorf("experiments: vm-raw with %d subflows: %w", subflows, raw.err)
			}
			// The per-iteration cost includes the (identical, small)
			// snapshot reset; it cancels in the relative comparison.
			ns := float64(elapsed.Nanoseconds()) / float64(iters)
			if backend == "native" {
				nativeNs = ns
			}
			rel := 0.0
			if nativeNs > 0 {
				rel = ns / nativeNs
			}
			out = append(out, OverheadResult{
				Backend:          backend,
				Subflows:         subflows,
				NsPerOp:          ns,
				RelativeToNative: rel,
			})
		}
	}
	return out, nil
}

// ThroughputParityResult is one bar of Fig. 9 bottom.
type ThroughputParityResult struct {
	Backend    string
	GoodputBps float64
}

// ThroughputParity reproduces Fig. 9 bottom: the end-to-end throughput
// of a saturated transfer must be unchanged across back-ends ("the
// total throughput remains unchanged throughout all schedulers").
func ThroughputParity() ([]ThroughputParityResult, error) {
	var out []ThroughputParityResult
	for _, backend := range OverheadBackends {
		s, err := schedulerFor(backend)
		if err != nil {
			return nil, err
		}
		scn, err := NewScenarioWith(noDraws, mptcp.Config{}, s,
			mptcp.SubflowSpec{Path: netsim.PathConfig{Name: "p1", Rate: netsim.ConstantRate(4e6), Delay: 10 * time.Millisecond}},
			mptcp.SubflowSpec{Path: netsim.PathConfig{Name: "p2", Rate: netsim.ConstantRate(4e6), Delay: 15 * time.Millisecond}},
		)
		if err != nil {
			return nil, err
		}
		var delivered int64
		scn.Conn.Receiver().OnDeliver(func(_ int64, size int, _ time.Duration) {
			delivered += int64(size)
		})
		const duration = 10 * time.Second
		for at := time.Duration(0); at < duration; at += 50 * time.Millisecond {
			scn.Eng.At(at, func() {
				if scn.Conn.QueuedSegments() < 512 {
					scn.Conn.Send(512<<10, 0)
				}
			})
		}
		scn.Eng.RunUntil(duration)
		out = append(out, ThroughputParityResult{
			Backend:    backend,
			GoodputBps: float64(delivered) / duration.Seconds(),
		})
	}
	return out, nil
}

// UpcallResult compares in-stack scheduling with a userspace-up-call
// architecture (§4.1: 0.2 µs in kernel vs 2.4 µs netlink up-call).
type UpcallResult struct {
	DirectNsPerOp float64
	UpcallNsPerOp float64
	Factor        float64
}

// UpcallOverhead measures one scheduling decision executed directly
// versus delegated across a real OS boundary — a pipe round-trip, the
// userspace analogue of the paper's netlink up-call prototype (§4.1:
// 2.4 µs per up-call vs 0.2 µs in-kernel). The up-call architecture of
// [35] pays this on every decision; the in-stack runtime does not.
func UpcallOverhead(iters int) (UpcallResult, error) {
	s, err := core.Load("minRTT", schedlib.MinRTT, core.BackendCompiled)
	if err != nil {
		return UpcallResult{}, err
	}
	env := overheadEnv(2)

	start := time.Now()
	for i := 0; i < iters; i++ {
		env.Reset()
		s.Exec(env)
	}
	direct := float64(time.Since(start).Nanoseconds()) / float64(iters)

	// Up-call path: request and response cross pipe file descriptors,
	// costing the syscalls and wake-ups a netlink round-trip costs.
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return UpcallResult{}, err
	}
	respR, respW, err := os.Pipe()
	if err != nil {
		return UpcallResult{}, err
	}
	defer reqW.Close()
	defer respR.Close()
	go func() {
		defer reqR.Close()
		defer respW.Close()
		buf := make([]byte, 1)
		for {
			if _, err := io.ReadFull(reqR, buf); err != nil {
				return
			}
			s.Exec(env)
			if _, err := respW.Write(buf); err != nil {
				return
			}
		}
	}()
	one := []byte{1}
	buf := make([]byte, 1)
	start = time.Now()
	for i := 0; i < iters; i++ {
		env.Reset()
		if _, err := reqW.Write(one); err != nil {
			return UpcallResult{}, err
		}
		if _, err := io.ReadFull(respR, buf); err != nil {
			return UpcallResult{}, err
		}
	}
	upcall := float64(time.Since(start).Nanoseconds()) / float64(iters)

	res := UpcallResult{DirectNsPerOp: direct, UpcallNsPerOp: upcall}
	if direct > 0 {
		res.Factor = upcall / direct
	}
	return res, nil
}

// MemoryResult is the §4.3 memory accounting.
type MemoryResult struct {
	Scheduler     string
	ProgramBytes  int
	InstanceBytes int
}

// MemoryFootprints reports program and per-instantiation footprints
// for the corpus (the paper: 3048 B for round-robin, 328 B per
// instantiation).
func MemoryFootprints() ([]MemoryResult, error) {
	var out []MemoryResult
	for _, name := range []string{"roundRobin", "minRTT", "redundant", "tap", "http2Aware"} {
		s, err := core.Load(name, schedlib.All[name], core.BackendVM)
		if err != nil {
			return nil, err
		}
		out = append(out, MemoryResult{
			Scheduler:     name,
			ProgramBytes:  s.MemoryFootprint(),
			InstanceBytes: core.InstanceFootprint(),
		})
	}
	return out, nil
}
