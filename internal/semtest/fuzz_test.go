package semtest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"progmp/internal/compile"
	"progmp/internal/envtest"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// FuzzBackendsAgree is the agreement net under every change to how a
// back-end lowers the language: a generated well-typed program
// (envtest.GenProgram, which emits queue variables, chains through two
// variables and variables scanned twice) against a generated
// environment must produce the same actions, registers and globals on
// the interpreter, the closure compiler, the generic VM program and the
// VM program specialized for the environment's subflow count — and a
// second execution must not allocate.
func FuzzBackendsAgree(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, seed*7919+1)
	}
	f.Fuzz(func(t *testing.T, progSeed, envSeed int64) {
		src := envtest.GenProgram(rand.New(rand.NewSource(progSeed)))
		checkBackendsAgree(t, src, func() *runtime.Env { return envtest.RandomEnv(rand.New(rand.NewSource(envSeed))) },
			fmt.Sprintf("prog %d, env %d", progSeed, envSeed))
	})
}

// checkBackendsAgree runs src on every back-end, each on a fresh
// newEnv(), and fails unless all record what the interpreter records
// and a repeated execution allocates nothing. what names the case in
// failures.
func checkBackendsAgree(t *testing.T, src string, newEnv func() *runtime.Env, what string) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("program does not parse: %v\n%s", err, src)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("program does not check: %v\n%s", err, src)
	}
	nSbf := len(newEnv().SubflowViews)
	type backend struct {
		name string
		exec func(*runtime.Env)
		// mayAlloc exempts a VM program with more spill slots than
		// Exec's stack buffer holds (vm.spillStackSlots = 16, "real
		// programs spill less"): ~4 % of generated generic programs.
		mayAlloc bool
	}
	vmBackend := func(name string, n int) backend {
		p, err := vm.Compile(info, vm.Options{SubflowCount: n})
		if err != nil {
			t.Fatalf("vm.Compile(@%d): %v\n%s", n, err, src)
		}
		return backend{name, func(env *runtime.Env) {
			if err := p.Exec(env); err != nil {
				t.Fatalf("%s exec: %v\n%s", name, err, src)
			}
		}, p.SpillSlots > 16}
	}
	backends := []backend{
		{name: "interp", exec: interp.New(info).Exec},
		{name: "compile", exec: compile.New(info).Exec},
		vmBackend("vm", -1),
		vmBackend("vm-specialized", nSbf),
	}
	var ref *runtime.Env
	for _, be := range backends {
		env := newEnv()
		be.exec(env)
		if ref == nil {
			ref = env
		} else if !slices.Equal(ref.Actions, env.Actions) || *ref.Regs != *env.Regs ||
			*ref.Globals != *env.Globals || ref.DirtyGlobals() != env.DirtyGlobals() {
			t.Fatalf("%s diverges from interp on (%s):\n%s\nactions %v vs %v\nregs %v vs %v\nglobals %v vs %v",
				be.name, what, src,
				env.Actions, ref.Actions,
				*env.Regs, *ref.Regs, *env.Globals, *ref.Globals)
		}
		if raceEnabled || be.mayAlloc {
			continue
		}
		// The same execution again, on its own environment: AllocsPerRun's
		// warm-up run fills the frame pool and the Actions capacity. A
		// collection between the two runs empties the pool, so only a
		// count that repeats is the back-end's own.
		again := newEnv()
		regs, globals := *again.Regs, *again.Globals
		allocs := 1.0
		for try := 0; try < 3 && allocs != 0; try++ {
			allocs = testing.AllocsPerRun(1, func() {
				again.Reset()
				*again.Regs, *again.Globals = regs, globals
				be.exec(again)
			})
		}
		if allocs != 0 {
			t.Fatalf("%s: %v allocs on a repeated execution of (%s):\n%s", be.name, allocs, what, src)
		}
	}
}

// TestBackendsAgreeOnSentScans holds the compiled back-ends' start past
// the sent prefix (types.Scan.NotSentOn) to the interpreter's literal
// scan on the cases the generator does not reach on purpose: prefixes
// of every length on Q, QU and RQ (scanned for TOP, COUNT, BYTES and
// behind another filter), a POP before the scan, a NULL subflow, and
// subflow IDs no packet can carry (70 and -1).
func TestBackendsAgreeOnSentScans(t *testing.T) {
	programs := map[string]string{
		"prefix": `
FOREACH (VAR sbf IN SUBFLOWS) {
    VAR skb = QU.FILTER(p => !p.SENT_ON(sbf)).TOP;
    IF (skb != NULL) { sbf.PUSH(skb); }
    SET(R1, R1 * 10 + Q.FILTER(p => !p.SENT_ON(sbf)).COUNT);
    SET(R2, R2 * 10 + RQ.FILTER(p => !p.SENT_ON(sbf)).COUNT);
    SET(R3, R3 + QU.FILTER(p => p.SIZE > 100).FILTER(p => !p.SENT_ON(sbf)).BYTES);
}`,
		"pop first": `
FOREACH (VAR sbf IN SUBFLOWS) {
    VAR q = QU.FILTER(p => !p.SENT_ON(sbf));
    sbf.PUSH(q.POP());
    IF (!q.EMPTY) { sbf.PUSH(q.TOP); }
    SET(R1, R1 * 10 + q.COUNT);
}`,
		"null subflow": `
VAR none = SUBFLOWS.FILTER(s => FALSE).MIN(s => s.RTT);
VAR q = QU.FILTER(p => !p.SENT_ON(none));
SET(R1, q.COUNT);
IF (!q.EMPTY) { SUBFLOWS.MIN(s => s.RTT).PUSH(q.TOP); }`,
	}
	pkts := func(sentOn ...[]int) []envtest.PktSpec {
		out := make([]envtest.PktSpec, len(sentOn))
		for i, ids := range sentOn {
			out[i] = envtest.PktSpec{Seq: int64(i), Size: int64(100 + 50*i), SentCount: int64(len(ids)), SentOn: ids}
		}
		return out
	}
	spec := func(ids ...int) envtest.EnvSpec {
		sp := envtest.EnvSpec{
			Q:  pkts([]int{0}, []int{0, 1}, nil, []int{0}),
			QU: pkts([]int{0, 1, 2}, []int{0, 1}, []int{0}, []int{0, 2}, nil, []int{1}, []int{0, 1, 2}),
			RQ: pkts([]int{1}, []int{0, 1}, []int{2}, nil),
		}
		for i, id := range ids {
			sp.Subflows = append(sp.Subflows, envtest.SbfSpec{ID: id, RTT: int64(10000 * (i + 1)), Cwnd: 10})
		}
		return sp
	}
	envs := map[string]envtest.EnvSpec{
		"ids 0-2":       spec(0, 1, 2),
		"ids 70, -1, 1": spec(70, -1, 1),
	}
	for pname, src := range programs {
		for ename, sp := range envs {
			t.Run(pname+"/"+ename, func(t *testing.T) {
				checkBackendsAgree(t, src, sp.Build, pname+" on "+ename)
			})
		}
	}
}
