package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"progmp/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/chaos.golden from this run")

// mpsim runs the CLI in-process and returns its exit status and
// streams.
func mpsim(args ...string) (status int, out, errOut string) {
	var o, e bytes.Buffer
	status = cli(args, &o, &e)
	return status, o.String(), e.String()
}

// wantLines fails unless every line is in out — the lines the CI
// integration steps grep for.
func wantLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}
}

func TestClassic(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	status, out, errOut := mpsim("-send", "20000", "-guard", "-metrics", "-trace", trace)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	wantLines(t, out,
		"scheduler       minRTT (vm backend)",
		"transferred     20000 / 20000 bytes",
		"completion time ",
		"guard           state=active",
		"trace           "+trace,
		"conn.sched_execs")
	if strings.Contains(out, "fleet  ") {
		t.Errorf("a one-connection run reported a fleet:\n%s", out)
	}
}

func TestConns(t *testing.T) {
	status, out, errOut := mpsim("-conns", "2", "-xstate", "-send", "20000", "-path", "a:2e6:5ms:0:pref", "-path", "b:1e6:9ms:0:backup")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	wantLines(t, out,
		"transferred     20000 / 20000 bytes",
		"fleet           2 connections (1 secondary complete)",
		"exposition      1 live source(s)",
		"shared state    epoch ")
}

func TestFleet(t *testing.T) {
	status, out, errOut := mpsim("-fleet", "20", "-shards", "2", "-xstate", "-duration", "200ms")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	wantLines(t, out,
		"fleet           20 conns, 2 shard(s), 200ms virtual",
		"scheduler       minRTT (vm backend, shared per shard)",
		"decision p50    ", "delivery p50    ", "bytes/conn      ", "visits          ",
		"shared state    epoch ")
}

// TestProfiles: a fleet run writes the CPU and heap profiles it was
// asked for.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	status, _, errOut := mpsim("-fleet", "20", "-shards", "1", "-duration", "200ms", "-cpuprofile", cpu, "-memprofile", mem)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	for _, name := range []string{cpu, mem} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestChaosGolden pins `mpsim -chaos all -seed 42` byte for byte: every
// scenario's delivery, segment count, FCT and path-manager outcome.
// Regenerate with `go test -run TestChaosGolden -update`.
func TestChaosGolden(t *testing.T) {
	status, out, errOut := mpsim("-chaos", "all", "-seed", "42")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	golden := filepath.Join("testdata", "chaos.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("chaos soak drifted from %s (rerun with -update if intended)\nwant:\n%s\ngot:\n%s", golden, want, out)
	}
}

// TestTraceReplaysByteForByte: a decision trace is a function of the
// seed alone. Every DSL back-end stamps the same decision sites (the
// source line of the PUSH/POP/DROP), and a VM specialization compiles
// in line, so neither the back-end nor the number of threads may
// change a byte of the JSONL file.
func TestTraceReplaysByteForByte(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	dir := t.TempDir()
	for _, sched := range []string{"minRTT", "roundRobin", "redundant"} {
		var ref []byte
		var refName string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, backend := range []string{"vm", "compiled", "interpreter"} {
				name := fmt.Sprintf("%s-%s-%d.jsonl", sched, backend, procs)
				trace := filepath.Join(dir, name)
				status, _, errOut := mpsim("-scheduler", sched, "-backend", backend, "-seed", "7", "-duration", "1s", "-trace", trace)
				if status != 0 {
					t.Fatalf("%s: exit %d: %s", name, status, errOut)
				}
				got, err := os.ReadFile(trace)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					if len(got) == 0 {
						t.Fatalf("%s: empty trace", name)
					}
					ref, refName = got, name
				} else if !bytes.Equal(got, ref) {
					t.Errorf("%s differs from %s", name, refName)
				}
			}
		}
	}
}

func TestChaos(t *testing.T) {
	status, out, errOut := mpsim("-chaos", "bursty", "-seed", "7")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	wantLines(t, out, "PASS bursty     seed=7 delivered=262144")
	if status, _, _ := mpsim("-chaos", "nosuch"); status != 1 {
		t.Errorf("unknown chaos scenario: exit %d, want 1", status)
	}
}

// A flag set explicitly that the chosen mode would ignore is refused
// with exit 2 and named; a bad value is a flag error (2), a scenario
// that cannot be built a run failure (1).
func TestModeFlagConflicts(t *testing.T) {
	cases := []struct {
		args   []string
		status int
		named  []string
	}{
		{[]string{"-fleet", "50", "-path", "a:1e6:1ms:0:pref", "-trace", "t.jsonl", "-conns", "3", "-send", "5"}, 2, []string{"-path", "-trace", "-conns", "-send"}},
		{[]string{"-fleet", "50", "-chaos", "all"}, 2, []string{"-chaos"}},
		{[]string{"-chaos", "bursty", "-guard", "-duration", "1s"}, 2, []string{"-guard", "-duration"}},
		{[]string{"-shards", "4"}, 2, []string{"-shards"}},
		{[]string{"-dest-groups", "4", "-fleet-send", "100"}, 2, []string{"-dest-groups", "-fleet-send"}},
		{[]string{"-path", "x:0:5ms:0:pref"}, 2, []string{"rate"}},
		{[]string{"-path", "x:3e6:5ms:1.5:pref"}, 2, []string{"loss"}},
		{[]string{"-nosuchflag"}, 2, nil},
		{[]string{"-backend", "jit"}, 1, []string{"unknown backend"}},
		{[]string{"-cc", "cubic"}, 1, []string{"unknown congestion control"}},
		{[]string{"-fleet", "5", "-scheduler", "/no/such/file"}, 1, []string{"neither built-in nor readable"}},
	}
	for _, c := range cases {
		status, out, errOut := mpsim(c.args...)
		if status != c.status {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, status, c.status, errOut)
		}
		if out != "" {
			t.Errorf("%v: a refused command line still printed %q", c.args, out)
		}
		for _, name := range c.named {
			if !strings.Contains(errOut, name) {
				t.Errorf("%v: stderr %q does not name %s", c.args, errOut, name)
			}
		}
	}
	// Accepted-but-unset is not a conflict: defaults of other modes'
	// flags never trip the check.
	if status, _, errOut := mpsim("-fleet", "4", "-duration", "50ms", "-guard", "-seed", "3"); status != 0 {
		t.Errorf("fleet with its own flags: exit %d: %s", status, errOut)
	}
}

// tracedRun runs mpsim over two preferred paths (256 KiB, seed 7) with
// -trace and returns the trace it wrote, read back.
func tracedRun(t *testing.T, scheduler string) []obs.Event {
	t.Helper()
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	status, out, errOut := mpsim("-scheduler", scheduler, "-seed", "7", "-send", "262144",
		"-path", "wifi:3e6:5ms:0:pref", "-path", "lte:8e6:20ms:0:pref", "-trace", trace)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	wantLines(t, out, "transferred     262144 / 262144 bytes", " events, 0 overwritten)")
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestEveryTransmissionAttributable is the acceptance property of the
// tracing layer: in the trace of a two-path run, every transmitted
// packet's subflow choice is attributable — through its exec id — to
// a scheduler execution event, and every segment of the transfer was
// pushed.
func TestEveryTransmissionAttributable(t *testing.T) {
	events := tracedRun(t, "minRTT")
	execStarts := map[uint64]bool{}
	for _, ev := range events {
		if ev.Kind == obs.EvExecStart {
			execStarts[ev.Exec] = true
		}
	}
	if len(execStarts) == 0 {
		t.Fatal("no scheduler execution events in the trace")
	}
	pushedSeqs := map[int64]bool{}
	for _, ev := range events {
		if ev.Kind != obs.EvPush {
			continue
		}
		if ev.Sbf < 0 {
			t.Fatalf("PUSH of seq %d has no subflow", ev.Seq)
		}
		if ev.Exec == 0 {
			t.Fatalf("PUSH of seq %d on subflow %d is outside any scheduler execution", ev.Seq, ev.Sbf)
		}
		if !execStarts[ev.Exec] {
			t.Fatalf("PUSH of seq %d references unknown execution %d", ev.Seq, ev.Exec)
		}
		pushedSeqs[ev.Seq] = true
	}
	const mss = 1460
	for seq := 0; seq < (262144+mss-1)/mss; seq++ {
		if !pushedSeqs[int64(seq)] {
			t.Fatalf("segment %d was never pushed (have %d pushed seqs)", seq, len(pushedSeqs))
		}
	}
}

// TestRedundantUsesBothSubflows checks that subflow choice is visible
// in the trace: the redundant scheduler transmits on both paths.
func TestRedundantUsesBothSubflows(t *testing.T) {
	seen := map[int32]bool{}
	for _, ev := range tracedRun(t, "redundant") {
		if ev.Kind == obs.EvPush {
			seen[ev.Sbf] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("redundant scheduler should push on both subflows, saw %v", seen)
	}
}
