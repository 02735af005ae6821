package envjson

import (
	"strings"
	"testing"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

func TestParseExample(t *testing.T) {
	env, err := Parse([]byte(Example()))
	if err != nil {
		t.Fatalf("Parse(Example): %v", err)
	}
	if len(env.SubflowViews) != 2 {
		t.Fatalf("subflows = %d, want 2", len(env.SubflowViews))
	}
	if got := env.SubflowViews[0].Ints[runtime.SbfRTT]; got != 10000 {
		t.Errorf("RTT = %d µs, want 10000", got)
	}
	if !env.SubflowViews[1].Bools[runtime.SbfIsBackup] {
		t.Errorf("second subflow should be backup")
	}
	if env.SendQ.Len() != 2 || env.UnackedQ.Len() != 1 || env.ReinjectQ.Len() != 0 {
		t.Errorf("queues = %d/%d/%d, want 2/1/0", env.SendQ.Len(), env.UnackedQ.Len(), env.ReinjectQ.Len())
	}
	if env.Reg(0) != 4194304 {
		t.Errorf("R1 = %d, want 4194304", env.Reg(0))
	}
	// The QU packet was sent on subflow 0.
	if !env.UnackedQ.Top().SentOn(env.SubflowViews[0]) {
		t.Errorf("QU packet should be marked sent on subflow 0")
	}
}

func TestParseRejects(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"subflowz": []}`},
		{"bad sent_on", `{"subflows": [{"rtt_ms": 1}], "qu": [{"seq": 0, "sent_on": [5]}]}`},
		{"too many regs", `{"regs": [1,2,3,4,5,6,7,8,9]}`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.src)); err == nil {
				t.Errorf("Parse accepted %q", tc.src)
			}
		})
	}
}

func TestExampleDrivesScheduler(t *testing.T) {
	env, err := Parse([]byte(Example()))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Load("minRTT", schedlib.MinRTT, core.BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	sched.Exec(env)
	if envtest.PushCount(env) != 1 {
		t.Fatalf("example env did not produce a scheduling decision: %v", env.Actions)
	}
	out := FormatActions(env)
	if !strings.Contains(out, "PUSH") || !strings.Contains(out, "subflow 0") {
		t.Errorf("FormatActions output unexpected:\n%s", out)
	}
}

func TestFormatActionsEmpty(t *testing.T) {
	env := runtime.NewEnv(nil, nil, nil, nil, nil)
	if got := FormatActions(env); !strings.Contains(got, "no actions") {
		t.Errorf("empty action queue rendered as %q", got)
	}
}

func TestPacketDefaults(t *testing.T) {
	env, err := Parse([]byte(`{"q": [{"seq": 3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	p := env.SendQ.Top()
	if p.Ints[runtime.PktSize] != 1460 {
		t.Errorf("default size = %d, want 1460", p.Ints[runtime.PktSize])
	}
	if p.Ints[runtime.PktLastSentUS] != -1 {
		t.Errorf("never-sent packet LAST_SENT_US = %d, want -1", p.Ints[runtime.PktLastSentUS])
	}
}
