package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progmp"
	"progmp/internal/obs"
)

// record runs a 256 KiB transfer over two preferred paths under the
// named built-in scheduler with tracing on, through the root progmp
// API, and returns the JSONL trace it writes.
func record(t *testing.T, scheduler string) []byte {
	t.Helper()
	nw := progmp.NewNetwork(7)
	conn, err := nw.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
		progmp.Path{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := progmp.LoadScheduler(scheduler, progmp.Schedulers[scheduler])
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(sched)
	tracer := progmp.NewTracer(0)
	conn.Instrument(tracer, nil)
	nw.At(0, func() { conn.Send(1 << 18) })
	nw.Run(60 * time.Second)
	if tracer.Dropped() != 0 {
		t.Fatalf("ring overwrote %d events; enlarge the test ring", tracer.Dropped())
	}
	var b bytes.Buffer
	if err := progmp.WriteTraceJSONL(&b, tracer.Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// trace runs progmp-trace on stdin and returns its exit status and
// streams.
func trace(stdin []byte, args ...string) (status int, out, errOut string) {
	var o, e bytes.Buffer
	status = run(args, bytes.NewReader(stdin), &o, &e)
	return status, o.String(), e.String()
}

// TestSummaryReportsFullAttribution: the summary of a recorded minRTT
// transfer counts its events and traces every transmission to a
// scheduler execution in the file.
func TestSummaryReportsFullAttribution(t *testing.T) {
	jsonl := record(t, "minRTT")
	status, out, errOut := trace(jsonl, "-format", "summary")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	if want := fmt.Sprintf("events %d\n", bytes.Count(jsonl, []byte("\n"))); !strings.HasPrefix(out, want) {
		t.Fatalf("summary does not open with %q:\n%s", want, out)
	}
	var got, want int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "attribution:") {
			if _, err := fmt.Sscanf(line, "attribution: %d/%d", &got, &want); err != nil {
				t.Fatalf("unparsable attribution line %q: %v", line, err)
			}
		}
	}
	if want == 0 || got != want {
		t.Fatalf("attribution %d/%d, want full and non-empty:\n%s", got, want, out)
	}
}

// TestFilterKinds: -kinds keeps only the requested events, and an
// unknown kind is refused.
func TestFilterKinds(t *testing.T) {
	status, out, errOut := trace(record(t, "minRTT"), "-kinds", "PUSH, DROP")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	events, err := obs.ReadJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("filter removed everything")
	}
	for _, ev := range events {
		if ev.Kind != obs.EvPush && ev.Kind != obs.EvDrop {
			t.Fatalf("unexpected kind %v after filter", ev.Kind)
		}
	}
	if status, _, errOut := trace(nil, "-kinds", "NOPE"); status != 1 || !strings.Contains(errOut, `unknown event kind "NOPE"`) {
		t.Fatalf("unknown kind: exit %d, stderr %q", status, errOut)
	}
}

// TestFileAndStdinAgree: the trace named as the argument and the one
// on stdin render alike, -o writes where stdout would, and -format
// jsonl re-emits the recorded bytes unchanged.
func TestFileAndStdinAgree(t *testing.T) {
	jsonl := record(t, "redundant")
	dir := t.TempDir()
	in := filepath.Join(dir, "t.jsonl")
	if err := os.WriteFile(in, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"jsonl", "chrome", "summary"} {
		status, fromStdin, errOut := trace(jsonl, "-format", format)
		if status != 0 {
			t.Fatalf("%s from stdin: exit %d: %s", format, status, errOut)
		}
		out := filepath.Join(dir, format+".out")
		if status, _, errOut := trace(nil, "-format", format, "-o", out, in); status != 0 {
			t.Fatalf("%s from file: exit %d: %s", format, status, errOut)
		}
		fromFile, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(fromFile) != fromStdin {
			t.Errorf("%s: file and stdin renderings differ", format)
		}
		if format == "jsonl" && fromStdin != string(jsonl) {
			t.Errorf("-format jsonl changed the recorded bytes")
		}
	}
}

// TestUsageErrors: a refused command line exits 2, an unreadable or
// malformed trace 1 with the reason.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		stdin  string
		args   []string
		status int
		want   string
	}{
		{"", []string{"a.jsonl", "b.jsonl"}, 2, "usage: progmp-trace"},
		{"", []string{"-scheduler", "minRTT"}, 2, "flag provided but not defined: -scheduler"},
		{"", []string{"/no/such/trace.jsonl"}, 1, "no such file"},
		{"", []string{"-format", "svg"}, 1, `unknown format "svg"`},
		{"{\"at_us\":1,\"ev\":\"PUSH\"}\n{oops\n", nil, 1, "line 2:"},
	} {
		status, out, errOut := trace([]byte(c.stdin), c.args...)
		if status != c.status || !strings.Contains(errOut, c.want) {
			t.Errorf("%v: exit %d, stderr %q; want %d and %q", c.args, status, errOut, c.status, c.want)
		}
		if out != "" {
			t.Errorf("%v: a refused run printed %q", c.args, out)
		}
	}
}
