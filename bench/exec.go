package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"progmp"
	"progmp/internal/envtest"
	"progmp/internal/mptcp"
	"progmp/internal/mptcp/sched"
	"progmp/internal/runtime"
)

// exec_corpus: a closed loop with one caller. Every corpus program runs
// against two seeded environment shapes on all three back-ends, plus
// the native MinRTT on both shapes. The back-ends do all the work and
// the substrate none: Fig. 9's measurement widened from one program to
// the corpus.

// envShape is one of the two environment shapes: the shallow one is a
// phone mid-transfer, the deep one a saturated multi-homed sender whose
// queue scans dominate.
type envShape struct {
	name     string
	subflows int
	q, qu    int
}

var envShapes = []envShape{
	{"shallow", 2, 4, 2},
	{"deep", 8, 64, 64},
}

// spec draws the shape's environment from the seed. Every subflow has
// window to spare, so the schedulers do their selection work instead
// of returning early.
func (sh envShape) spec(seed int64) envtest.EnvSpec {
	rng := rand.New(rand.NewSource(seed))
	var spec envtest.EnvSpec
	for i := 0; i < sh.subflows; i++ {
		rtt := int64(5000 + rng.Intn(60000))
		cwnd := int64(10 + rng.Intn(54))
		spec.Subflows = append(spec.Subflows, envtest.SbfSpec{
			ID: i, RTT: rtt, RTTVar: rtt / 10, Cwnd: cwnd, InFlight: rng.Int63n(cwnd),
			Throughput: int64(1<<20 + rng.Intn(8<<20)), Backup: i%4 == 3,
		})
	}
	for i := 0; i < sh.qu; i++ {
		spec.QU = append(spec.QU, envtest.PktSpec{
			Seq: int64(i), SentCount: 1, AgeUS: int64(rng.Intn(50000)),
			SentOn: []int{rng.Intn(sh.subflows)},
		})
	}
	for i := 0; i < sh.q; i++ {
		spec.Q = append(spec.Q, envtest.PktSpec{Seq: int64(sh.qu + i), Prop: int64(rng.Intn(4))})
	}
	spec.Regs[0] = 4 << 20 // R1: the target the TAP family steers to
	spec.Regs[2] = 20      // R3: selective-compensation ratio ×10
	return spec
}

// backends in the order the paper introduces them (§4.1).
var backends = []struct {
	name string
	id   progmp.Backend
}{
	{"interp", progmp.BackendInterpreter},
	{"compile", progmp.BackendCompiled},
	{"vm", progmp.BackendVM},
}

// corpusNames returns the corpus program names, sorted: map order must
// not decide the slice order.
func corpusNames() []string {
	names := make([]string, 0, len(progmp.Schedulers))
	for name := range progmp.Schedulers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execCell is one (program, shape, back-end) measurement.
type execCell struct {
	program, shape, backend string
	sched                   mptcp.Scheduler
	env                     *runtime.Env
	regs                    [runtime.NumRegisters]int64 // the spec's: where every slice starts
	batch                   int                         // executions per slice
	reps                    []repetition
}

// slice times one batch of Reset+Exec and returns the actions it
// produced, which is the slice's work count: a repetition that decides
// differently did not time the same thing. Registers and globals
// outlive Env.Reset, so a program that counts executions
// (probingMinRTT probes on every eighth) would start each slice at
// another phase; every slice starts from the spec's registers instead.
func (c *execCell) slice() (ns, actions int64) {
	*c.env.Regs = c.regs
	*c.env.Globals = [runtime.NumGlobals]int64{}
	t0 := time.Now()
	for j := 0; j < c.batch; j++ {
		c.env.Reset()
		c.sched.Exec(c.env)
		actions += int64(len(c.env.Actions))
	}
	return int64(time.Since(t0)), actions
}

// nsPerExec reduces the cell's repetitions with the estimator.
func (c *execCell) nsPerExec() (float64, error) {
	ns, _, err := quietTime(c.reps)
	if err != nil {
		return 0, fmt.Errorf("%s/%s/%s: %w", c.program, c.shape, c.backend, err)
	}
	return float64(ns) / float64(len(c.reps[0].ns)*c.batch), nil
}

// execTriple is one (program, shape): what the three back-ends are
// checked against each other on.
type execTriple struct {
	program string
	spec    envtest.EnvSpec
	scheds  [3]mptcp.Scheduler // indexed like backends
}

// agree runs the triple's back-ends side by side from identical fresh
// environments and reports the first disagreement in actions,
// registers or globals ("" when they agree).
func (t *execTriple) agree(execs int) string {
	var envs [3]*runtime.Env
	for b := range envs {
		envs[b] = t.spec.Build()
	}
	for j := 0; j < execs; j++ {
		for b, env := range envs {
			env.Reset()
			t.scheds[b].Exec(env)
		}
		for b := 1; b < len(envs); b++ {
			if !envtest.SameActions(envs[0].Actions, envs[b].Actions) {
				return fmt.Sprintf("execution %d: %s and %s push different actions", j, backends[0].name, backends[b].name)
			}
			if *envs[0].Regs != *envs[b].Regs || *envs[0].Globals != *envs[b].Globals {
				return fmt.Sprintf("execution %d: %s and %s leave different registers", j, backends[0].name, backends[b].name)
			}
		}
	}
	return ""
}

// allocsPerExec is the whole number of heap allocations per execution
// over execs executions, as testing.AllocsPerRun counts: the integer
// division drops the few allocations the runtime makes on its own
// while the loop runs.
func allocsPerExec(s mptcp.Scheduler, env *runtime.Env, execs int) uint64 {
	before := mallocCount()
	for j := 0; j < execs; j++ {
		env.Reset()
		s.Exec(env)
	}
	return (mallocCount() - before) / uint64(execs)
}

// execCorpus is the loaded corpus: the triples for the oracles, the
// cells for timing.
type execCorpus struct {
	triples []*execTriple
	cells   []*execCell
}

// loadExecCorpus loads every program on every back-end and builds the
// seeded environments: exec_corpus's set-up.
func loadExecCorpus(seed int64, sz sizes) (*execCorpus, error) {
	c := &execCorpus{}
	for si, sh := range envShapes {
		spec := sh.spec(mix(seed, si))
		for _, name := range corpusNames() {
			t := &execTriple{program: name, spec: spec}
			for b, be := range backends {
				s, err := progmp.LoadSchedulerBackend(name, progmp.Schedulers[name], be.id)
				if err != nil {
					return nil, err
				}
				s.SetSynchronousSpecialization(true)
				t.scheds[b] = s
				batch := sz.execBatch
				if be.id == progmp.BackendInterpreter {
					batch = (batch + 9) / 10 // the AST walk is an order of magnitude slower
				}
				c.cells = append(c.cells, &execCell{
					program: name, shape: sh.name, backend: be.name,
					sched: s, env: spec.Build(), regs: spec.Regs, batch: batch,
				})
			}
			c.triples = append(c.triples, t)
		}
		c.cells = append(c.cells, &execCell{
			program: "minRTT", shape: sh.name, backend: "native",
			sched: sched.MinRTT{}, env: spec.Build(), batch: sz.execBatch,
		})
	}
	return c, nil
}

// judge is exec_corpus's oracle: one operation per (program, shape) for
// back-end agreement, one per cell for allocation freedom. It runs
// before timing and leaves every specialization compiled.
func (c *execCorpus) judge(t *tally) {
	for _, tr := range c.triples {
		why := tr.agree(8)
		t.check(why == "", "%s: %s", tr.program, why)
	}
	for _, cell := range c.cells {
		allocs := allocsPerExec(cell.sched, cell.env, 100)
		t.check(allocs == 0, "%s/%s/%s: %d allocations per execution", cell.program, cell.shape, cell.backend, allocs)
	}
}

// runExecCorpus is the workload.
func runExecCorpus(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var corpus *execCorpus
	var setups []float64
	for i := 0; i < cfg.size.minReps; i++ {
		t0 := time.Now()
		c, err := loadExecCorpus(cfg.seed, cfg.size)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		corpus = c
	}
	out.set("setup_s", median(setups))

	corpus.judge(&out.tally)

	_, err := repeat(cfg.budget, cfg.size.minReps, func(int) error {
		for _, c := range corpus.cells {
			var rep repetition
			for i := 0; i < cfg.size.execSlices; i++ {
				rep.add(c.slice())
			}
			c.reps = append(c.reps, rep)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	perBackend := map[string][]float64{}
	perShape := map[string][]float64{}
	single := map[string]float64{} // backend/shape of minRTT
	for _, c := range corpus.cells {
		ns, err := c.nsPerExec()
		if err != nil {
			return nil, err
		}
		perBackend[c.backend] = append(perBackend[c.backend], ns)
		if c.backend == "vm" {
			perShape[c.shape] = append(perShape[c.shape], ns)
		}
		if c.program == "minRTT" {
			single[c.backend+"/"+c.shape] = ns
		}
	}
	out.set("decision_ns", geomean(perBackend["vm"]))
	out.set("vm_vs_native", single["vm/shallow"]/single["native/shallow"])
	out.set("fail_ratio", float64(out.failed)/float64(out.attempted))
	if !cfg.traced {
		return out, nil
	}
	out.set("vm.exec_ns", geomean(perBackend["vm"]))
	out.set("compile.exec_ns", geomean(perBackend["compile"]))
	out.set("interp.exec_ns", geomean(perBackend["interp"]))
	out.set("vm.exec_ns.shallow", geomean(perShape["shallow"]))
	out.set("vm.exec_ns.deep", geomean(perShape["deep"]))
	out.set("native.exec_ns", single["native/shallow"])

	// Instructions per decision, on instances of their own: step
	// counting costs the timed ones nothing this way.
	var steps, execs int64
	for _, t := range corpus.triples {
		s, err := progmp.LoadSchedulerBackend(t.program, progmp.Schedulers[t.program], progmp.BackendVM)
		if err != nil {
			return nil, err
		}
		s.SetSynchronousSpecialization(true)
		s.EnableStepMetrics()
		env := t.spec.Build()
		for j := 0; j < 8; j++ {
			env.Reset()
			s.Exec(env)
		}
		st := s.Stats()
		steps += st.Steps
		execs += st.Executions
	}
	out.set("vm.steps_per_decision", float64(steps)/float64(execs))
	return out, nil
}
