package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"progmp"
)

// Every workload runs at the short scale, untraced and traced, and
// reports exactly the metrics the catalogue says it reports.
func TestEveryWorkloadAtShortScale(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, traced: traced, size: shortSize, log: io.Discard}
			res, err := runWorkload(w.Name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.notes)
			}
			lists := [][]metricDef{endToEnd}
			if traced {
				lists = append(lists, perLayer)
			}
			want := map[string]bool{}
			for _, list := range lists {
				for _, m := range list {
					// Without cfg.probes a traced run reports only its own
					// layers: what is reported everywhere comes from the
					// probes, checked below.
					if m.on(w.Name) && (len(m.Workloads) < len(all) || m.Name == "setup_s" || m.Name == "fail_ratio") {
						want[m.Name] = true
					}
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: %s is not reported", w.Name, traced, name)
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("%s traced=%v: %s is reported but not catalogued for it", w.Name, traced, name)
				}
			}
		}
	}
}

// A driver run prints, as its last line, exactly BENCHMARK.json's
// end-to-end metrics, or with tracing exactly its per-layer metrics —
// the corpora and the probes included.
func TestDriverLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		cfg := runConfig{seed: 5, traced: traced, probes: true, size: shortSize, log: io.Discard}
		res, err := runWorkload("fleet_shared", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.writeDriverLine(&buf); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]metricValue
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("traced=%v: correct/attempted/failed = %v", traced, buf.String())
		}
		defs := driverEndToEnd()
		if traced {
			defs = driverPerLayer()
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(line.Metrics), len(defs))
		}
		for _, def := range defs {
			m, ok := line.Metrics[def.Name]
			if !ok || m.Unit != def.Unit {
				t.Errorf("traced=%v: %s missing or in %q", traced, def.Name, m.Unit)
			}
			if !traced && m.Value == 0 {
				t.Errorf("end-to-end metric %s reads 0", def.Name)
			}
			// Every layer fleet_shared touches must have been measured,
			// not defaulted.
			// (Nothing fails and nothing is lost on its loss-free paths.)
			if traced && def.on("fleet_shared") && m.Value == 0 && def.Name != "fail_ratio" && def.Name != "mptcp.retx_per_seg" {
				t.Errorf("per-layer metric %s reads 0 on fleet_shared", def.Name)
			}
		}
	}
}

// The traced pass's spans load as Chrome trace-event JSON and nest: a
// workload root, slices under it, executions under slices or writes.
func TestTraceIsLoadable(t *testing.T) {
	cfg := runConfig{seed: 1, traced: true, size: shortSize, log: io.Discard}
	res, err := runWorkload("stream_shallowq", cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeSpans(path, res.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for i, ev := range file.TraceEvents {
		names[ev.Name]++
		if ev.Ph != "X" || ev.Args.ID != i || ev.Args.Parent >= i {
			t.Fatalf("event %d: %+v", i, ev)
		}
		if ev.Args.Parent >= 0 {
			parent := file.TraceEvents[ev.Args.Parent]
			if ev.Ts < parent.Ts || ev.Ts+ev.Dur > parent.Ts+parent.Dur+0.001 {
				t.Fatalf("event %d (%s) is not inside its parent %s", i, ev.Name, parent.Name)
			}
		}
	}
	for _, name := range []string{"bench.workload", "netsim.run_slice", "core.exec", "mptcp.send", "app.deliver"} {
		if names[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if names["bench.workload"] != 1 {
		t.Errorf("%d root spans", names["bench.workload"])
	}
	sh := res.spans.shares()
	if sum := sh.exec + sh.send + sh.substrate; sum <= 0.5 || sum > 1.0001 {
		t.Errorf("shares sum to %v: %+v", sum, sh)
	}
}

// A program that keeps state in registers across executions
// (probingMinRTT probes idle subflows on every eighth) must still do
// the same work in every slice: each slice starts from the spec's
// registers, whatever the batch size and whatever ran before it.
func TestExecSlicesRepeatForStatefulPrograms(t *testing.T) {
	spec := envShapes[0].spec(1)
	spec.Subflows[1].InFlight = 0 // an idle subflow: the probe pushes
	s, err := progmp.LoadSchedulerBackend("probingMinRTT", progmp.Schedulers["probingMinRTT"], progmp.BackendInterpreter)
	if err != nil {
		t.Fatal(err)
	}
	// The premise: in this environment the eighth execution does more
	// than the first, so a slice's work depends on where it starts.
	env := spec.Build()
	var perExec []int
	for j := 0; j < 8; j++ {
		env.Reset()
		s.Exec(env)
		perExec = append(perExec, len(env.Actions))
	}
	if perExec[7] <= perExec[0] {
		t.Fatalf("actions per execution %v: the eighth does not probe", perExec)
	}
	cell := &execCell{sched: s, env: env, regs: spec.Regs, batch: 20}
	_, first := cell.slice()
	for i := 0; i < 8; i++ {
		if _, actions := cell.slice(); actions != first {
			t.Fatalf("slice %d produced %d actions, the first %d", i+1, actions, first)
		}
	}
}
