package experiments

import (
	"testing"
)

// TestFairnessShapes asserts the coupled-congestion-control story
// (§2.1, RFC 6356): on a shared bottleneck, uncoupled Reno's two
// subflows take roughly two fair shares, while coupled LIA keeps the
// MPTCP aggregate near one.
func TestFairnessShapes(t *testing.T) {
	results := map[string]FairnessResult{}
	for _, cc := range []string{"reno", "lia", "olia"} {
		r, err := Fairness(cc, 29)
		if err != nil {
			t.Fatal(err)
		}
		results[cc] = r
		t.Logf("%-5s mptcp %.2f MB/s vs tcp %.2f MB/s (ratio %.2f)",
			cc, r.MPTCPGoodput/1e6, r.TCPGoodput/1e6, r.Ratio)
	}
	reno, lia, olia := results["reno"], results["lia"], results["olia"]
	// The link must be reasonably utilized in every run (RED trades a
	// little utilization for loss desynchronization).
	for cc, r := range results {
		total := r.MPTCPGoodput + r.TCPGoodput
		if total < 1.2e6 {
			t.Errorf("%s: bottleneck underutilized (%.2f MB/s total)", cc, total/1e6)
		}
	}
	if reno.Ratio < 1.4 {
		t.Errorf("uncoupled Reno ratio %.2f, want ≈2 (two unfair shares)", reno.Ratio)
	}
	if lia.Ratio > reno.Ratio*0.8 {
		t.Errorf("LIA ratio %.2f should be well below Reno's %.2f", lia.Ratio, reno.Ratio)
	}
	if lia.Ratio > 1.5 {
		t.Errorf("LIA ratio %.2f, want near-fair (≤1.5)", lia.Ratio)
	}
	if olia.Ratio > reno.Ratio*0.9 {
		t.Errorf("OLIA ratio %.2f should undercut uncoupled Reno %.2f", olia.Ratio, reno.Ratio)
	}
}
