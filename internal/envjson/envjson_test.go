package envjson

import (
	"fmt"
	"reflect"
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

// markers maps each scalar JSON field of a spec struct to a value that
// differs from the field's default.
func markers(t reflect.Type) map[string]string {
	m := map[string]string{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key := strings.Split(f.Tag.Get("json"), ",")[0]
		switch f.Type.Kind() {
		case reflect.Bool:
			m[key] = "true"
		case reflect.Int64, reflect.Float64:
			m[key] = "7"
		}
	}
	return m
}

// Every property a scheduler reads can be described: setting each
// scalar field of SubflowSpec and PacketSpec in turn, against an
// environment of one subflow and one packet, moves every slot of the
// SubflowIntProp, SubflowBoolProp and PacketIntProp tables. ID is the
// one exception, the subflow's position in "subflows".
func TestEveryPropertyHasAField(t *testing.T) {
	parse := func(sbf, pkt string) *runtime.Env {
		t.Helper()
		env, err := Parse([]byte(fmt.Sprintf(`{"subflows": [{%s}], "q": [{%s}]}`, sbf, pkt)))
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	base := parse("", "")
	sbfInts := map[runtime.SubflowIntProp]bool{runtime.SbfID: true}
	sbfBools := map[runtime.SubflowBoolProp]bool{}
	pktInts := map[runtime.PacketIntProp]bool{}
	for key, val := range markers(reflect.TypeOf(SubflowSpec{})) {
		v := parse(fmt.Sprintf("%q: %s", key, val), "").SubflowViews[0]
		for p := range v.Ints {
			if v.Ints[p] != base.SubflowViews[0].Ints[p] {
				sbfInts[runtime.SubflowIntProp(p)] = true
			}
		}
		for p := range v.Bools {
			if v.Bools[p] != base.SubflowViews[0].Bools[p] {
				sbfBools[runtime.SubflowBoolProp(p)] = true
			}
		}
	}
	for key, val := range markers(reflect.TypeOf(PacketSpec{})) {
		v := parse("", fmt.Sprintf("%q: %s", key, val)).SendQ.Top()
		for p := range v.Ints {
			if v.Ints[p] != base.SendQ.Top().Ints[p] {
				pktInts[runtime.PacketIntProp(p)] = true
			}
		}
	}
	for p := 0; p < runtime.NumSubflowIntProps; p++ {
		if !sbfInts[runtime.SubflowIntProp(p)] {
			t.Errorf("subflow property %s has no field in SubflowSpec", runtime.SubflowIntProp(p))
		}
	}
	for p := 0; p < runtime.NumSubflowBoolProps; p++ {
		if !sbfBools[runtime.SubflowBoolProp(p)] {
			t.Errorf("subflow property %s has no field in SubflowSpec", runtime.SubflowBoolProp(p))
		}
	}
	for p := 0; p < runtime.NumPacketIntProps; p++ {
		if !pktInts[runtime.PacketIntProp(p)] {
			t.Errorf("packet property %s has no field in PacketSpec", runtime.PacketIntProp(p))
		}
	}
}

// The shared-state schedulers reach their deciding branches from a JSON
// environment: a filling link queue (qaware) or the fleet's view of a
// destination (jointFlow) moves the push off the lower-RTT subflow 0.
func TestSharedStateSchedulersDecide(t *testing.T) {
	for _, tc := range []struct {
		sched, name, sbf0 string
		want              string
	}{
		{schedlib.QAware, "qaware", "", "on subflow 0"},
		{schedlib.QAware, "qaware", `, "link_queued": 100000`, "on subflow 1"},
		{schedlib.JointFlow, "jointFlow", "", "on subflow 0"},
		{schedlib.JointFlow, "jointFlow", `, "xquar": 1`, "on subflow 1"},
		{schedlib.JointFlow, "jointFlow", `, "xlost": 8`, "on subflow 1"},
		{schedlib.JointFlow, "jointFlow", `, "xrtt_ms": 30`, "on subflow 1"},
	} {
		env, err := Parse([]byte(`{"subflows": [{"rtt_ms": 10, "cwnd": 10` + tc.sbf0 + `}, {"rtt_ms": 40, "cwnd": 10}], "q": [{"seq": 0}]}`))
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.Load(tc.name, tc.sched, core.BackendVM)
		if err != nil {
			t.Fatal(err)
		}
		sched.Exec(env)
		if out := FormatActions(env); !strings.Contains(out, "PUSH") || !strings.Contains(out, tc.want) {
			t.Errorf("%s with subflow 0 {rtt 10 ms%s}: %s want a PUSH %s", tc.name, tc.sbf0, out, tc.want)
		}
	}
}
