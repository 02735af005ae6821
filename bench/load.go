package main

import (
	"fmt"
	"sort"
	"time"

	"progmp"
	"progmp/internal/analysis"
	"progmp/internal/compile"
	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

// load_corpus: a closed loop from source text to the first decision,
// for every corpus program. It uses the front end, the analyzer and
// the VM compiler the other way round from exec_corpus — compiling,
// not executing — so an optimizer pass that speeds executions but
// slows loading, hot-swap or specialization shows here.

// loadStage is one timed step of loading a program. A stage's slice is
// one program; the stage's figure is the mean over the corpus.
type loadStage struct {
	metric string
	// run does the stage for one program and returns a work count that
	// must repeat (bytecode length, action count) and any error.
	run func(p *loadProgram) (int64, error)
}

// loadProgram carries one program through the stages; each stage
// leaves what later stages consume.
type loadProgram struct {
	name, src string
	prog      *lang.Program
	info      *types.Info
	generic   *vm.Program
	env       *runtime.Env // fresh per repetition, for the first decision
}

var loadStages = []loadStage{
	{"lang.parse_us", func(p *loadProgram) (int64, error) {
		prog, err := lang.Parse(p.src)
		p.prog = prog
		return 1, err
	}},
	{"types.check_us", func(p *loadProgram) (int64, error) {
		info, err := types.Check(p.prog)
		p.info = info
		return 1, err
	}},
	{"analysis.analyze_us", func(p *loadProgram) (int64, error) {
		rep := analysis.Analyze(p.info, analysis.Options{})
		if rep.HasErrors() {
			return 0, fmt.Errorf("analyzer rejects %s", p.name)
		}
		return int64(len(rep.Diagnostics)) + 1, nil
	}},
	{"vm.compile_us", func(p *loadProgram) (int64, error) {
		prog, err := vm.Compile(p.info, vm.Options{SubflowCount: -1})
		if err != nil {
			return 0, err
		}
		p.generic = prog
		return int64(len(prog.Insns)), nil
	}},
	{"vm.specialize_us", func(p *loadProgram) (int64, error) {
		prog, err := vm.Compile(p.info, vm.Options{SubflowCount: 2})
		if err != nil {
			return 0, err
		}
		return int64(len(prog.Insns)), nil
	}},
	{"compile.new_us", func(p *loadProgram) (int64, error) {
		compile.New(p.info)
		return 1, nil
	}},
	{"interp.new_us", func(p *loadProgram) (int64, error) {
		interp.New(p.info)
		return 1, nil
	}},
	{"core.load_us", func(p *loadProgram) (int64, error) {
		_, err := progmp.LoadSchedulerBackend(p.name, p.src, progmp.BackendVM)
		return 1, err
	}},
	{"core.load_compile_us", func(p *loadProgram) (int64, error) {
		_, err := progmp.LoadSchedulerBackend(p.name, p.src, progmp.BackendCompiled)
		return 1, err
	}},
	{"core.load_interp_us", func(p *loadProgram) (int64, error) {
		_, err := progmp.LoadSchedulerBackend(p.name, p.src, progmp.BackendInterpreter)
		return 1, err
	}},
	// Source text to first decision: load on the VM, specialize for the
	// connection's two subflows inline, execute once.
	{"load_us", func(p *loadProgram) (int64, error) {
		s, err := progmp.LoadSchedulerBackend(p.name, p.src, progmp.BackendVM)
		if err != nil {
			return 0, err
		}
		s.SetSynchronousSpecialization(true)
		s.Exec(p.env)
		return int64(len(p.env.Actions)) + 1, nil
	}},
}

// runLoadCorpus is the workload.
func runLoadCorpus(cfg runConfig) (*outcome, error) {
	return loadSources(cfg, progmp.Schedulers)
}

// loadSources runs the load stages over a set of named sources.
func loadSources(cfg runConfig, sources map[string]string) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	var programs []*loadProgram
	for name, src := range sources {
		programs = append(programs, &loadProgram{name: name, src: src})
	}
	sort.Slice(programs, func(i, j int) bool { return programs[i].name < programs[j].name })
	out.set("setup_s", time.Since(t0).Seconds())

	reps := make([][]repetition, len(loadStages))
	var codeLen int64
	_, err := repeat(cfg.budget, cfg.size.minReps, func(r int) error {
		stageReps := make([]repetition, len(loadStages))
		codeLen = 0
		for _, p := range programs {
			p.env = envtest.TwoSubflowEnv(4)
			for s, stage := range loadStages {
				t0 := time.Now()
				work, err := stage.run(p)
				ns := int64(time.Since(t0))
				if r == 0 {
					// One operation per program and stage: a load that
					// errors fails it.
					out.check(err == nil, "%s %s: %v", stage.metric, p.name, err)
				}
				if err != nil {
					break // later stages need what this one did not produce
				}
				stageReps[s].add(ns, work)
			}
			if p.generic != nil {
				codeLen += int64(len(p.generic.Insns))
			}
		}
		for s := range loadStages {
			reps[s] = append(reps[s], stageReps[s])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for s, stage := range loadStages {
		ns, _, err := quietTime(reps[s])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", stage.metric, err)
		}
		if cfg.traced || stage.metric == "load_us" {
			out.set(stage.metric, float64(ns)/1e3/float64(len(programs)))
		}
	}
	out.set("fail_ratio", float64(out.failed)/float64(out.attempted))
	if cfg.traced {
		out.set("vm.code_len", float64(codeLen)/float64(len(programs)))
	}
	return out, nil
}
