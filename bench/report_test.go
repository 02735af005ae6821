package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) gives
	// [3.5, 13.5, 31.0]; the median is 13.5.
	c := cell{values: []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}}
	if got, want := c.spread(), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if s := (cell{values: []float64{5}}).spread(); s != 0 {
		t.Errorf("spread of one run = %v", s)
	}
}

func runs(workload, metric string, values ...float64) []result {
	var out []result
	for _, v := range values {
		out = append(out, result{Workload: workload, Metrics: map[string]metricValue{metric: {Value: v}}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name         string
		metric       string
		a, b         []float64
		want         string
		wantExitCode int
	}{
		{"same", "seg_per_s", []float64{100, 101, 99}, []float64{100, 100, 101}, "ok", 0},
		{"slower", "seg_per_s", []float64{100, 101, 99}, []float64{70, 71, 69}, "REGRESSED", 1},
		{"faster", "seg_per_s", []float64{100, 101, 99}, []float64{120, 121, 119}, "ok", 0},
		{"noisy", "seg_per_s", []float64{100, 140, 70, 120}, []float64{85, 130, 60, 95}, "unresolved", 0},
		{"noisy and slower", "seg_per_s", []float64{100, 160, 120}, []float64{40, 70, 50}, "unresolved", 0},
		{"noisy but every run faster", "seg_per_s", []float64{40, 70, 50}, []float64{100, 160, 120}, "ok", 0},
		{"virtual time moved", "delivery_p50_us", []float64{1000}, []float64{1200}, "REGRESSED", 1},
		{"set-up noise under the floor", "setup_s", []float64{0.010}, []float64{0.020}, "ok", 0},
		{"set-up doubled", "setup_s", []float64{0.5}, []float64{1.0}, "REGRESSED", 1},
	} {
		var buf bytes.Buffer
		n := writeComparison(&buf, runs("fleet_churn", c.metric, c.a...), runs("fleet_churn", c.metric, c.b...))
		if !strings.Contains(buf.String(), c.want) || (n > 0) != (c.wantExitCode > 0) {
			t.Errorf("%s: %d regressions, want verdict %q:\n%s", c.name, n, c.want, buf.String())
		}
	}
}

func TestParseSeed(t *testing.T) {
	for text, want := range map[string]int64{
		"7": 7, "-1": -1, "0": 0,
		"9223372036854775807":  1<<63 - 1,
		"18446744073709551615": -1, // unsigned 64 bits wrap
	} {
		if got, err := parseSeed(text); err != nil || got != want {
			t.Errorf("parseSeed(%q) = %d, %v, want %d", text, got, err, want)
		}
	}
	for _, text := range []string{"", "x", "1.5", "18446744073709551616"} {
		if _, err := parseSeed(text); err == nil {
			t.Errorf("parseSeed(%q) succeeded", text)
		}
	}
}
