package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"progmp"
	"progmp/cmd/internal/scenario"
	"progmp/internal/obs"
)

func twoPathScenario(scheduler string) *scenario.Scenario {
	return &scenario.Scenario{
		Scheduler: scheduler,
		Backend:   "vm",
		Send:      1 << 18,
		Seed:      7,
		Duration:  60 * time.Second,
		Paths: []progmp.Path{
			{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
			{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond},
		},
	}
}

// TestEveryTransmissionAttributable is the acceptance property of the
// tracing layer: replaying a two-path scenario and exporting JSONL,
// every transmitted packet's subflow choice is attributable — through
// its exec id — to a scheduler execution event in the trace.
func TestEveryTransmissionAttributable(t *testing.T) {
	sc := twoPathScenario("minRTT")
	tracer, _, err := replay(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("ring overwrote %d events; enlarge the test ring", tracer.Dropped())
	}

	var buf bytes.Buffer
	if err := emit(&buf, "jsonl", tracer.Events(), 0); err != nil {
		t.Fatal(err)
	}
	var parsed []obs.JSONLEvent
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev obs.JSONLEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, ev)
	}

	execStarts := map[uint64]bool{}
	for _, ev := range parsed {
		if ev.Ev == "EXEC_START" {
			execStarts[ev.Exec] = true
		}
	}
	if len(execStarts) == 0 {
		t.Fatal("no scheduler execution events in the trace")
	}

	pushedSeqs := map[int64]bool{}
	for _, ev := range parsed {
		if ev.Ev != "PUSH" {
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

	// Every enqueued segment must have been transmitted (the transfer
	// completes in 60 virtual seconds) and hence appear as a PUSH.
	mss := 1460
	segments := (sc.Send + mss - 1) / mss
	for seq := 0; seq < segments; seq++ {
		if !pushedSeqs[int64(seq)] {
			t.Fatalf("segment %d was never pushed (have %d pushed seqs)", seq, len(pushedSeqs))
		}
	}
}

// TestRedundantUsesBothSubflows checks that subflow choice is visible
// in the trace: the redundant scheduler transmits on both paths.
func TestRedundantUsesBothSubflows(t *testing.T) {
	tracer, _, err := replay(twoPathScenario("redundant"), 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.EvPush {
			seen[ev.Sbf] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("redundant scheduler should push on both subflows, saw %v", seen)
	}
}

// TestSummaryReportsFullAttribution checks the human-readable summary
// agrees with the acceptance property.
func TestSummaryReportsFullAttribution(t *testing.T) {
	tracer, _, err := replay(twoPathScenario("minRTT"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSummary(&buf, tracer.Events(), tracer.Dropped()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "attribution:") {
		t.Fatalf("summary lacks attribution line:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "attribution:") {
			var got, want int
			if _, err := fmt.Sscanf(line, "attribution: %d/%d", &got, &want); err != nil {
				t.Fatalf("unparsable attribution line %q: %v", line, err)
			}
			if got != want {
				t.Fatalf("partial attribution: %s", line)
			}
		}
	}
}

// TestFilterKinds checks the -kinds filter keeps only requested events.
func TestFilterKinds(t *testing.T) {
	tracer, _, err := replay(twoPathScenario("minRTT"), 0)
	if err != nil {
		t.Fatal(err)
	}
	events, err := filterKinds(tracer.Events(), "PUSH, DROP")
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
	if _, err := filterKinds(nil, "NOPE"); err == nil {
		t.Fatal("unknown kind should error")
	}
}
