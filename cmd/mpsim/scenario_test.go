package main

import (
	"strings"
	"testing"
	"time"

	"progmp"
)

func TestParsePath(t *testing.T) {
	ok := []struct {
		in   string
		want progmp.Path
	}{
		{"wifi:3e6:5ms:0:pref", progmp.Path{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond}},
		{"lte:8000000:20ms:0.01:backup", progmp.Path{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, LossProb: 0.01, Backup: true}},
		{"x:1:0s:1:pref", progmp.Path{Name: "x", RateBps: 1, LossProb: 1}},
	}
	for _, c := range ok {
		got, err := ParsePath(c.in)
		if err != nil {
			t.Errorf("ParsePath(%q): %v", c.in, err)
			continue
		}
		// Path holds func fields, so compare the parsed ones.
		if got.Name != c.want.Name || got.RateBps != c.want.RateBps || got.OneWayDelay != c.want.OneWayDelay ||
			got.LossProb != c.want.LossProb || got.Backup != c.want.Backup {
			t.Errorf("ParsePath(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	bad := []struct{ in, wantErr string }{
		{"wifi:3e6:5ms:0", "want name:rate"},
		{"wifi:3e6:5ms:0:pref:extra", "want name:rate"},
		{":3e6:5ms:0:pref", "empty name"},
		{"x:3e6zzz:5ms:0:pref", "rate"}, // Sscanf("%g") used to read this as 3e6
		{"x:0:5ms:0:pref", "rate"},
		{"x:-3e6:5ms:0:pref", "rate"},
		{"x:NaN:5ms:0:pref", "rate"},
		{"x:+Inf:5ms:0:pref", "rate"},
		{"x:3e6:5:0:pref", "delay"},
		{"x:3e6:-5ms:0:pref", "delay"},
		{"x:3e6:5ms:1.5:pref", "loss"},
		{"x:3e6:5ms:-0.1:pref", "loss"},
		{"x:3e6:5ms:0.1x:pref", "loss"},
		{"x:3e6:5ms:0:primary", "pref or backup"},
	}
	for _, c := range bad {
		if _, err := ParsePath(c.in); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParsePath(%q) error = %v, want one mentioning %q", c.in, err, c.wantErr)
		}
	}
}

// A scenario without -path runs over the default pair, and Dial leaves
// the connection ready: scheduler installed, R1 set.
func TestDialDefaults(t *testing.T) {
	sc := Scenario{Scheduler: "minRTT", Backend: "interp", Seed: 1, R1: 9, Guard: true}
	conn, err := sc.Dial(sc.NewWorld(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sbfs := conn.Subflows()
	if len(sbfs) != 2 || sbfs[0].Name != "wifi" || sbfs[1].Name != "lte" || !sbfs[1].Backup {
		t.Errorf("default paths = %+v, want wifi + backup lte", sbfs)
	}
	if info := conn.SchedulerInfo(); info.Name != "minRTT" || info.Backend != "interpreter" || !info.Supervised {
		t.Errorf("scheduler info = %+v", info)
	}
	if v, err := conn.Register(progmp.R1); err != nil || v != 9 {
		t.Errorf("R1 = %d, %v; want 9", v, err)
	}
	sc.Backend = "jit"
	if _, err := sc.Dial(sc.NewWorld(), nil, nil); err == nil {
		t.Error("Dial accepted an unknown back-end")
	}
}
