package main

import (
	"io"
	"testing"

	"progmp"
	"progmp/internal/fleet"
	"progmp/internal/mptcp"
	"progmp/internal/runtime"
)

// Each oracle is shown one violation of its kind through a fake and
// must turn it into failed operations — fail_ratio > 0 and a non-zero
// exit — and must pass the same input without the violation.

// deviant is a scheduler that does what inner does and then one thing
// more: it pushes an extra action, or allocates.
type deviant struct {
	inner    mptcp.Scheduler
	extra    bool
	allocate bool
}

var escaped []byte

func (d deviant) Exec(env *runtime.Env) {
	d.inner.Exec(env)
	if d.extra && len(env.SubflowViews) > 0 {
		if p := env.SendQ.Top(); p != nil {
			env.Push(env.SubflowViews[0], p)
		}
	}
	if d.allocate {
		escaped = make([]byte, 64)
	}
}

func minRTTOn(t *testing.T, b progmp.Backend) *progmp.Scheduler {
	t.Helper()
	s, err := progmp.LoadSchedulerBackend("minRTT", progmp.Schedulers["minRTT"], b)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSynchronousSpecialization(true)
	return s
}

func TestExecOracleSeesDisagreementAndAllocation(t *testing.T) {
	spec := envShapes[0].spec(1)
	corpus := func(vm mptcp.Scheduler) *execCorpus {
		tr := &execTriple{program: "minRTT", spec: spec}
		tr.scheds = [3]mptcp.Scheduler{minRTTOn(t, progmp.BackendInterpreter), minRTTOn(t, progmp.BackendCompiled), vm}
		return &execCorpus{
			triples: []*execTriple{tr},
			cells:   []*execCell{{program: "minRTT", shape: "shallow", backend: "vm", sched: vm, env: spec.Build()}},
		}
	}
	for _, c := range []struct {
		name   string
		vm     mptcp.Scheduler
		failed int64
	}{
		{"faithful", minRTTOn(t, progmp.BackendVM), 0},
		{"disagrees", deviant{inner: minRTTOn(t, progmp.BackendVM), extra: true}, 1},
		{"allocates", deviant{inner: minRTTOn(t, progmp.BackendVM), allocate: true}, 1},
	} {
		var tl tally
		corpus(c.vm).judge(&tl)
		if tl.attempted != 2 || tl.failed != c.failed {
			t.Errorf("%s back-end: %d of %d operations failed, want %d of 2 (%v)", c.name, tl.failed, tl.attempted, c.failed, tl.notes)
		}
	}
}

func TestLoadOracleSeesBrokenProgram(t *testing.T) {
	cfg := runConfig{seed: 1, size: shortSize, log: io.Discard}
	good, err := loadSources(cfg, map[string]string{"minRTT": progmp.Schedulers["minRTT"]})
	if err != nil {
		t.Fatal(err)
	}
	if good.failed != 0 || good.metrics["fail_ratio"] != 0 {
		t.Errorf("a good program failed %d loads", good.failed)
	}
	for name, src := range map[string]string{
		"syntax": "IF (!Q.EMPTY) {",
		"types":  "missing.PUSH(Q.TOP);",
	} {
		out, err := loadSources(cfg, map[string]string{"minRTT": progmp.Schedulers["minRTT"], name: src})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed == 0 || out.metrics["fail_ratio"] <= 0 {
			t.Errorf("%s: a program that cannot load failed no operation", name)
		}
	}
}

func TestTransferOracleSeesLossAndReordering(t *testing.T) {
	clean := transferPass{enqueued: 100, delivered: 100, allAcked: true}
	for _, c := range []struct {
		name   string
		change func(*transferPass)
		failed int64
	}{
		{"clean", func(*transferPass) {}, 0},
		{"lost", func(p *transferPass) { p.delivered = 98 }, 2},
		{"duplicated", func(p *transferPass) { p.delivered = 101 }, 1},
		{"reordered", func(p *transferPass) { p.violations = []string{"got seq 7, want 6"} }, 1},
		{"unacknowledged", func(p *transferPass) { p.allAcked = false }, 1},
	} {
		p := clean
		c.change(&p)
		var tl tally
		p.judge(&tl, "fake")
		if tl.attempted != 101 || tl.failed != c.failed {
			t.Errorf("%s: %d of %d operations failed, want %d of 101", c.name, tl.failed, tl.attempted, c.failed)
		}
	}
}

func TestFleetOracleSeesDifferingConnections(t *testing.T) {
	a := []fleet.ConnSummary{{Delivered: 16384, Segments: 12, Bursts: 1, Acked: true}, {Delivered: 32768, Segments: 24, Bursts: 2, Acked: true}}
	b := append([]fleet.ConnSummary(nil), a...)
	if n := differingConns(a, b); n != 0 {
		t.Errorf("identical fleets differ in %d connections", n)
	}
	b[1].Segments = 23
	if n := differingConns(a, b); n != 1 {
		t.Errorf("one changed connection counted as %d", n)
	}
	if n := differingConns(a, b[:1]); n == 0 {
		t.Error("fleets of different sizes counted as equal")
	}
}

// A real violation end to end: a transfer whose scheduler is swapped
// for one that decides differently mid-run no longer walks the verified
// trajectory, and the run says so.
func TestTallyBecomesFailRatio(t *testing.T) {
	var tl tally
	tl.check(true, "")
	tl.check(false, "seeded failure %d", 1)
	if tl.attempted != 2 || tl.failed != 1 || len(tl.notes) != 1 || tl.notes[0] != "seeded failure 1" {
		t.Errorf("tally = %+v", tl)
	}
	out := newOutcome()
	out.tally = tl
	res, err := newResult("exec_corpus", runConfig{log: io.Discard}, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("result = correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}
