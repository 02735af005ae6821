// Package semtest pins the observable semantics of tricky language
// corners with golden action sequences, executed on all three
// back-ends. Where the differential tests prove the back-ends agree
// with each other, these tests prove they agree with the *documented*
// semantics.
package semtest

import (
	"fmt"
	"strings"
	"testing"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/runtime"
)

// run executes src on every back-end against identically-built
// environments and returns the rendered action trace (they must agree;
// the differential suite guarantees it, this re-checks cheaply).
func run(t *testing.T, src string, build func() *runtime.Env) (string, *runtime.Env) {
	t.Helper()
	var trace string
	var last *runtime.Env
	for _, backend := range []core.Backend{core.BackendInterpreter, core.BackendCompiled, core.BackendVM} {
		s, err := core.Load("sem", src, backend)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		env := build()
		s.Exec(env)
		got := render(env)
		if trace == "" {
			trace = got
		} else if got != trace {
			t.Fatalf("%s diverges:\n%s\nvs\n%s", backend, got, trace)
		}
		last = env
	}
	return trace, last
}

// render serializes actions as "KIND seq[@sbf]" tokens.
func render(env *runtime.Env) string {
	var parts []string
	for _, a := range env.Actions {
		switch a.Kind {
		case runtime.ActionPop:
			parts = append(parts, fmt.Sprintf("POP%d(%s)", pktSeq(a.Packet), a.Queue))
		case runtime.ActionPush:
			parts = append(parts, fmt.Sprintf("PUSH%d@%d", pktSeq(a.Packet), int64(a.Subflow)-1000))
		case runtime.ActionDrop:
			parts = append(parts, fmt.Sprintf("DROP%d", pktSeq(a.Packet)))
		}
	}
	return strings.Join(parts, " ")
}

// pktSeq inverts the envtest handle convention (10000 + seq).
func pktSeq(h runtime.PacketHandle) int64 { return int64(h) - 10000 }

func expect(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("actions = %q, want %q", got, want)
	}
}

func TestQueueVariablesAreLazy(t *testing.T) {
	// A queue-typed variable holds the filter chain, not a snapshot of
	// its results: predicates see register values current at USE time.
	src := `
VAR smalls = Q.FILTER(p => p.SIZE < R1);
SET(R1, 999999);
SET(R2, smalls.COUNT);
SET(R1, 10);
SET(R3, smalls.COUNT);`
	_, env := run(t, src, func() *runtime.Env {
		return envtest.EnvSpec{
			Q: []envtest.PktSpec{{Seq: 0, Size: 100}, {Seq: 1, Size: 2000}},
		}.Build()
	})
	if env.Reg(1) != 2 {
		t.Errorf("R2 = %d, want 2 (all packets below 999999)", env.Reg(1))
	}
	if env.Reg(2) != 0 {
		t.Errorf("R3 = %d, want 0 (none below 10)", env.Reg(2))
	}
}

func TestListVariablesAreMaterialized(t *testing.T) {
	// Subflow-list variables, in contrast, are materialized at the
	// declaration: later register changes do not alter membership.
	src := `
VAR fast = SUBFLOWS.FILTER(s => s.RTT < R1);
SET(R1, 0);
SET(R2, fast.COUNT);`
	_, env := run(t, src, func() *runtime.Env {
		e := envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{{ID: 0, RTT: 5}, {ID: 1, RTT: 50}},
		}.Build()
		e.Regs[0] = 10
		return e
	})
	if env.Reg(1) != 1 {
		t.Errorf("R2 = %d, want 1 (membership fixed at declaration)", env.Reg(1))
	}
}

func TestListFilterInsideListFilterPredicate(t *testing.T) {
	// FuzzBackendsAgree's first finding: a list the predicate of a list
	// FILTER materializes must not leak into the outer list (the
	// interpreter and the closures once interleaved both in one arena
	// and iterated 2+2·2 subflows here).
	src := `
FOREACH (VAR s IN SUBFLOWS.FILTER(a => SUBFLOWS.FILTER(b => TRUE).COUNT > 1)) {
    s.PUSH(Q.TOP);
}`
	got, _ := run(t, src, func() *runtime.Env { return envtest.TwoSubflowEnv(1) })
	expect(t, got, "PUSH0@0 PUSH0@1")
}

func TestPopVisibilityAndOrdering(t *testing.T) {
	src := `
VAR a = Q.POP();
VAR b = Q.POP();
SUBFLOWS.GET(1).PUSH(b);
SUBFLOWS.GET(0).PUSH(a);`
	got, _ := run(t, src, func() *runtime.Env { return envtest.TwoSubflowEnv(3) })
	expect(t, got, "POP0(Q) POP1(Q) PUSH1@1 PUSH0@0")
}

func TestPushTopThenDropPattern(t *testing.T) {
	// The Fig. 10a OpportunisticRedundant idiom: TOP pushes do not
	// consume; the final POP+DROP does.
	src := `
FOREACH (VAR sbf IN SUBFLOWS) {
    sbf.PUSH(Q.TOP);
}
DROP(Q.POP());`
	got, _ := run(t, src, func() *runtime.Env { return envtest.TwoSubflowEnv(2) })
	expect(t, got, "PUSH0@0 PUSH0@1 POP0(Q) DROP0")
}

func TestNullChainsAreGraceful(t *testing.T) {
	src := `
VAR ghost = SUBFLOWS.FILTER(s => FALSE).MIN(s => s.RTT);
SET(R1, ghost.RTT + ghost.CWND * 2);
IF (ghost == NULL) { SET(R2, 1); }
ghost.PUSH(Q.POP());
VAR phantom = Q.FILTER(p => FALSE).TOP;
IF (phantom == NULL) { SET(R3, 1); }
SET(R4, phantom.SIZE);`
	got, env := run(t, src, func() *runtime.Env { return envtest.TwoSubflowEnv(1) })
	// The POP happens (and commits nothing at apply time, so the packet
	// stays in Q); the PUSH to NULL does not.
	expect(t, got, "POP0(Q)")
	if env.Reg(0) != 0 || env.Reg(1) != 1 || env.Reg(2) != 1 || env.Reg(3) != 0 {
		t.Errorf("registers = %v, want [0 1 1 0 ...]", env.Regs[:4])
	}
}

func TestForeachReturnUnwindsEverything(t *testing.T) {
	src := `
FOREACH (VAR sbf IN SUBFLOWS) {
    SET(R1, R1 + 1);
    IF (sbf.ID == 0) { RETURN; }
    SET(R2, 1);
}
SET(R3, 1);`
	_, env := run(t, src, func() *runtime.Env { return envtest.TwoSubflowEnv(0) })
	if env.Reg(0) != 1 || env.Reg(1) != 0 || env.Reg(2) != 0 {
		t.Errorf("registers = %v, want RETURN to stop loop and program", env.Regs[:3])
	}
}

func TestNestedFilterChains(t *testing.T) {
	src := `
VAR picked = QU.FILTER(p => p.SIZE > 50).FILTER(p => p.SENT_COUNT == 1).MIN(p => p.SEQ);
IF (picked != NULL) {
    SET(R1, picked.SEQ);
    SUBFLOWS.MIN(s => s.RTT).PUSH(picked);
}`
	got, env := run(t, src, func() *runtime.Env {
		return envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{{ID: 0, RTT: 10, Cwnd: 10}},
			QU: []envtest.PktSpec{
				{Seq: 4, Size: 40, SentCount: 1},
				{Seq: 5, Size: 90, SentCount: 2},
				{Seq: 6, Size: 90, SentCount: 1},
				{Seq: 7, Size: 90, SentCount: 1},
			},
		}.Build()
	})
	expect(t, got, "PUSH6@0")
	if env.Reg(0) != 6 {
		t.Errorf("R1 = %d, want 6", env.Reg(0))
	}
}

func TestGetWrapsNegativeRegisters(t *testing.T) {
	src := `SET(R1, 0 - 5);
VAR s = SUBFLOWS.GET(R1);
SET(R2, s.ID);`
	_, env := run(t, src, func() *runtime.Env {
		return envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{{ID: 0, RTT: 1}, {ID: 1, RTT: 2}, {ID: 2, RTT: 3}},
		}.Build()
	})
	// -5 mod 3 wraps to 1.
	if env.Reg(1) != 1 {
		t.Errorf("GET(-5) over 3 subflows = ID %d, want 1", env.Reg(1))
	}
}

func TestShortCircuitBooleans(t *testing.T) {
	// With no subflows, the right-hand sides read properties of NULL;
	// gracefulness plus short-circuit must both yield stable values.
	src := `
VAR s = SUBFLOWS.MIN(x => x.RTT);
IF (s != NULL AND s.RTT < 10) { SET(R1, 1); } ELSE { SET(R1, 2); }
IF (s == NULL OR s.RTT > 10) { SET(R2, 1); } ELSE { SET(R2, 2); }`
	_, env := run(t, src, func() *runtime.Env { return envtest.EnvSpec{}.Build() })
	if env.Reg(0) != 2 || env.Reg(1) != 1 {
		t.Errorf("registers = %v, want [2 1]", env.Regs[:2])
	}
}

func TestArithmeticCorners(t *testing.T) {
	src := `
SET(R1, 0 - 7 / 2);
SET(R2, (0 - 7) % 3);
SET(R3, 1000000 * 1000000);
SET(R4, R3 / 1000000);`
	_, env := run(t, src, func() *runtime.Env { return envtest.EnvSpec{}.Build() })
	if env.Reg(0) != -3 {
		t.Errorf("R1 = %d, want -3 (truncated division)", env.Reg(0))
	}
	if env.Reg(1) != -1 {
		t.Errorf("R2 = %d, want -1 (Go-style remainder)", env.Reg(1))
	}
	if env.Reg(3) != 1000000 {
		t.Errorf("R4 = %d, want 64-bit arithmetic", env.Reg(3))
	}
}

func TestReinjectBeforeFresh(t *testing.T) {
	// The reinjection prelude services RQ before Q and avoids subflows
	// that already carried the packet.
	src := `
IF (!RQ.EMPTY) {
    VAR re = SUBFLOWS.FILTER(s => !RQ.TOP.SENT_ON(s)).MIN(s => s.RTT);
    IF (re != NULL) { re.PUSH(RQ.POP()); }
}
IF (!Q.EMPTY) {
    SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());
}`
	got, _ := run(t, src, func() *runtime.Env {
		return envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{{ID: 0, RTT: 10, Cwnd: 9}, {ID: 1, RTT: 40, Cwnd: 9}},
			Q:        []envtest.PktSpec{{Seq: 9}},
			RQ:       []envtest.PktSpec{{Seq: 2, SentOn: []int{0}}},
		}.Build()
	})
	expect(t, got, "POP2(RQ) PUSH2@1 POP9(Q) PUSH9@0")
}

func TestGlobalRegistersAndQueueBytes(t *testing.T) {
	// G1..G8 read the execution-local copy of the shared global file;
	// GSET writes it and marks the register dirty for publication.
	// Q.BYTES sums the sizes of visible matching packets.
	src := `
GSET(G1, Q.BYTES + G2);
SET(R1, G1);
SET(R2, Q.FILTER(p => p.SIZE > 150).BYTES);`
	_, env := run(t, src, func() *runtime.Env {
		e := envtest.EnvSpec{
			Q: []envtest.PktSpec{{Seq: 0, Size: 100}, {Seq: 1, Size: 200}},
		}.Build()
		e.Globals[1] = 7 // preset G2 without dirtying it
		return e
	})
	if got := env.Global(0); got != 307 {
		t.Errorf("G1 = %d, want 307 (Q.BYTES 300 + G2 7)", got)
	}
	if got := env.Reg(0); got != 307 {
		t.Errorf("R1 = %d, want 307 (reads back the local GSET)", got)
	}
	if got := env.Reg(1); got != 200 {
		t.Errorf("R2 = %d, want 200 (filtered BYTES)", got)
	}
	if got := env.DirtyGlobals(); got != 1 {
		t.Errorf("dirty mask = %b, want only G1 dirty", got)
	}
}
