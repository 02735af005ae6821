package experiments

import (
	"testing"
	"time"

	"progmp/internal/mptcp"
)

// TestStreamingShapes asserts the Fig. 1 / Fig. 13 relations:
//   - the default scheduler leaks a substantial share of the 1 MB/s
//     phase onto LTE (paper: ~30%);
//   - the backup variant starves in the 4 MB/s phase (WiFi alone
//     cannot sustain it);
//   - TAP keeps the LTE share minimal in the low phase while
//     sustaining the high phase.
func TestStreamingShapes(t *testing.T) {
	def, err := Streaming(StreamingDefault, 3)
	if err != nil {
		t.Fatal(err)
	}
	bak, err := Streaming(StreamingBackup, 3)
	if err != nil {
		t.Fatal(err)
	}
	tap, err := Streaming(StreamingTAP, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatStreaming([]StreamingResult{def, bak, tap}))

	if def.LowPhaseLTEShare < 0.10 {
		t.Errorf("default scheduler LTE share in the 1MB/s phase = %.1f%%, want a substantial leak (paper ≈30%%)",
			def.LowPhaseLTEShare*100)
	}
	if bak.LowPhaseLTEShare > 0.02 {
		t.Errorf("backup mode should not use LTE in the low phase, got %.1f%%", bak.LowPhaseLTEShare*100)
	}
	if bak.HighPhaseGoodput > 3.4e6 {
		t.Errorf("backup mode sustained %.2f MB/s in the 4MB/s phase; WiFi alone must fall short", bak.HighPhaseGoodput/1e6)
	}
	if tap.LowPhaseLTEShare > def.LowPhaseLTEShare/2 {
		t.Errorf("TAP low-phase LTE share %.1f%% should be far below default %.1f%%",
			tap.LowPhaseLTEShare*100, def.LowPhaseLTEShare*100)
	}
	if tap.HighPhaseGoodput < 3.5e6 {
		t.Errorf("TAP failed to sustain the 4MB/s phase: %.2f MB/s", tap.HighPhaseGoodput/1e6)
	}
	if tap.LTEBytes >= def.LTEBytes {
		t.Errorf("TAP total LTE usage (%d) should undercut default (%d)", tap.LTEBytes, def.LTEBytes)
	}
}

// TestRedundancyFCTShapes asserts the Fig. 10b ranking for short flows
// under 2% loss: every redundancy flavor beats the default scheduler,
// and RedundantIfNoQ is best overall.
func TestRedundancyFCTShapes(t *testing.T) {
	points, err := RedundancyFCT([]int{16, 64, 256}, RedundancySchedulers, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFCT(points, RedundancySchedulers))
	mean := map[string]map[int]time.Duration{}
	for _, p := range points {
		if mean[p.Scheduler] == nil {
			mean[p.Scheduler] = map[int]time.Duration{}
		}
		mean[p.Scheduler][p.FlowKB] = p.MeanFCT
	}
	// "All redundant schedulers outperform the default scheduler for
	// small flows."
	for _, red := range []string{"redundant", "opportunisticRedundant", "redundantIfNoQ"} {
		if mean[red][16] >= mean["minRTT"][16] {
			t.Errorf("%s (%v) should beat minRTT (%v) at 16 KB under loss",
				red, mean[red][16], mean["minRTT"][16])
		}
	}
	// "For increasing flow sizes, the OpportunisticRedundant scheduler
	// beats the existing redundant scheduler as full redundancy
	// becomes more expensive."
	if mean["opportunisticRedundant"][256] >= mean["redundant"][256] {
		t.Errorf("opportunisticRedundant (%v) should beat redundant (%v) at 256 KB",
			mean["opportunisticRedundant"][256], mean["redundant"][256])
	}
	// "Our RedundantIfNoQ scheduler ... outperforms all depicted
	// schedulers" for the short-flow range.
	for _, kb := range []int{16, 64} {
		for _, other := range []string{"minRTT", "redundant", "opportunisticRedundant"} {
			if mean["redundantIfNoQ"][kb] >= mean[other][kb] {
				t.Errorf("redundantIfNoQ (%v) should outperform %s (%v) at %d KB",
					mean["redundantIfNoQ"][kb], other, mean[other][kb], kb)
			}
		}
	}
	// RedundantIfNoQ outperforms the full redundant scheduler overall.
	var ifNoQ, full time.Duration
	for _, kb := range []int{16, 64, 256} {
		ifNoQ += mean["redundantIfNoQ"][kb]
		full += mean["redundant"][kb]
	}
	if ifNoQ >= full {
		t.Errorf("redundantIfNoQ (%v total) should outperform redundant (%v total)", ifNoQ, full)
	}
}

// TestRedundancyThroughputShapes asserts Fig. 10c: the new schedulers
// achieve near-maximum bulk throughput while the full redundant
// scheduler is bounded by a single path.
func TestRedundancyThroughputShapes(t *testing.T) {
	points, err := RedundancyThroughput(RedundancySchedulers, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatThroughput(points))
	get := func(sched, wl string) float64 {
		for _, p := range points {
			if p.Scheduler == sched && p.Workload == wl {
				return p.Normalized
			}
		}
		t.Fatalf("missing %s/%s", sched, wl)
		return 0
	}
	if get("minRTT", "bulk") < 1.4 {
		t.Errorf("default bulk throughput %.2fx single path, want clear aggregation", get("minRTT", "bulk"))
	}
	if get("redundant", "bulk") > 1.3 {
		t.Errorf("full redundancy bulk throughput %.2fx, want bounded near a single path", get("redundant", "bulk"))
	}
	for _, sched := range []string{"opportunisticRedundant", "redundantIfNoQ"} {
		if get(sched, "bulk") < 1.5 {
			t.Errorf("%s bulk throughput %.2fx, want near the maximum (paper: 'nearly the maximum achievable throughput')",
				sched, get(sched, "bulk"))
		}
	}
}

// TestCompensationShapes asserts Fig. 12: the default's FCT grows with
// the RTT ratio, Compensating stays nearly flat (at overhead cost),
// and SelectiveCompensation switches behaviour around ratio 2.
func TestCompensationShapes(t *testing.T) {
	ratios := []float64{1, 2, 4, 6}
	points, err := CompensationSweep(ratios, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatCompensation(points))
	get := func(sched string, ratio float64) CompensationPoint {
		for _, p := range points {
			if p.Scheduler == sched && p.RTTRatio == ratio {
				return p
			}
		}
		t.Fatalf("missing %s/%v", sched, ratio)
		return CompensationPoint{}
	}
	defGrowth := float64(get("minRTT", 6).MeanFCT) / float64(get("minRTT", 1).MeanFCT)
	compGrowth := float64(get("compensating", 6).MeanFCT) / float64(get("compensating", 1).MeanFCT)
	if defGrowth < 1.5 {
		t.Errorf("default FCT grew only %.2fx from ratio 1 to 6; scenario too easy", defGrowth)
	}
	if compGrowth > defGrowth*0.75 {
		t.Errorf("compensating FCT growth %.2fx should stay well below default %.2fx", compGrowth, defGrowth)
	}
	if get("compensating", 6).MeanFCT >= get("minRTT", 6).MeanFCT {
		t.Errorf("compensating must beat default at high RTT ratio")
	}
	// Overhead: compensating costs extra wire bytes, and the extra
	// cost shrinks as the ratio grows (Fig. 12 middle).
	if get("compensating", 1).OverheadVsDefault <= 1.0 {
		t.Errorf("compensating at ratio 1 should cost overhead, got %.2fx", get("compensating", 1).OverheadVsDefault)
	}
	if get("compensating", 6).OverheadVsDefault >= get("compensating", 1).OverheadVsDefault {
		t.Errorf("compensation overhead should decrease with the RTT ratio: %.2fx at 1 vs %.2fx at 6",
			get("compensating", 1).OverheadVsDefault, get("compensating", 6).OverheadVsDefault)
	}
	// Selective ≈ default below the threshold, ≈ compensating above.
	selLow := get("selectiveCompensation", 1)
	if selLow.OverheadVsDefault > 1.15 {
		t.Errorf("selective compensation at ratio 1 should track default overhead, got %.2fx", selLow.OverheadVsDefault)
	}
	selHigh := get("selectiveCompensation", 6)
	if float64(selHigh.MeanFCT) > float64(get("minRTT", 6).MeanFCT)*0.9 {
		t.Errorf("selective compensation at ratio 6 should gain most of the FCT benefit")
	}
}

// TestHTTP2Shapes asserts Fig. 14: the HTTP/2-aware scheduler keeps
// the dependency retrieval time low as the WiFi delay grows and uses
// far less of the metered LTE subflow.
func TestHTTP2Shapes(t *testing.T) {
	delays := []time.Duration{0, 40 * time.Millisecond, 80 * time.Millisecond}
	points, err := HTTP2Sweep(delays, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatHTTP2(points))
	get := func(sched string, extra time.Duration) HTTP2Point {
		for _, p := range points {
			if p.Scheduler == sched && p.WiFiExtraDelay == extra {
				return p
			}
		}
		t.Fatalf("missing %s/%v", sched, extra)
		return HTTP2Point{}
	}
	for _, d := range delays {
		def, aware := get("minRTT", d), get("http2Aware", d)
		// Within 5%: at moderate delays both route dependencies over
		// the same fast path and only the tail packet's placement
		// jitters.
		if float64(aware.DependencyRetrieved) > float64(def.DependencyRetrieved)*1.05 {
			t.Errorf("+%v: aware dependency retrieval %v should not exceed default %v",
				d, aware.DependencyRetrieved, def.DependencyRetrieved)
		}
		if aware.LTEBytes >= def.LTEBytes/2 {
			t.Errorf("+%v: aware LTE bytes %d should be far below default %d", d, aware.LTEBytes, def.LTEBytes)
		}
	}
	// At the highest WiFi delay the aware scheduler must avoid the
	// slow path for the initial packets and keep dependency retrieval
	// substantially faster (the Fig. 14 headline).
	worst := delays[len(delays)-1]
	if def, aware := get("minRTT", worst), get("http2Aware", worst); float64(aware.DependencyRetrieved) > 0.7*float64(def.DependencyRetrieved) {
		t.Errorf("+%v: aware dependency retrieval %v should be well below default %v",
			worst, aware.DependencyRetrieved, def.DependencyRetrieved)
	}
	// The aware scheduler's full load time must stay in the same
	// ballpark (preference-awareness must not wreck the load).
	for _, d := range delays {
		def, aware := get("minRTT", d), get("http2Aware", d)
		if aware.FullLoad > def.FullLoad*3 {
			t.Errorf("+%v: aware full load %v degraded too much vs default %v", d, aware.FullLoad, def.FullLoad)
		}
	}
}

// TestHandoverShapes asserts §5.2: the handover-aware scheduler
// shortens the delivery interruption after a WiFi collapse.
func TestHandoverShapes(t *testing.T) {
	def, err := Handover("minRTT", 9)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Handover("handoverAware", 9)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("default: interruption=%v fct=%v; aware: interruption=%v fct=%v",
		def.Interruption, def.FCT, aware.Interruption, aware.FCT)
	if !def.Completed || !aware.Completed {
		t.Fatalf("handover transfers must complete (default %v, aware %v)", def.Completed, aware.Completed)
	}
	if aware.Interruption > def.Interruption {
		t.Errorf("handover-aware interruption %v should not exceed default %v", aware.Interruption, def.Interruption)
	}
}

// TestTargetRTTShapes asserts §5.4: under WiFi RTT spikes, the
// TargetRTT scheduler keeps tail latency below the default-with-backup
// configuration while still preserving preferences outside the spike.
func TestTargetRTTShapes(t *testing.T) {
	def, err := TargetRTT("minRTT", 13)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := TargetRTT("targetRTT", 13)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("default: mean=%v p95=%v lte=%d; targetRTT: mean=%v p95=%v lte=%d",
		def.MeanResponse, def.P95Response, def.LTEBytes,
		aware.MeanResponse, aware.P95Response, aware.LTEBytes)
	if def.Responses == 0 || aware.Responses == 0 {
		t.Fatal("no responses measured")
	}
	if aware.P95Response >= def.P95Response {
		t.Errorf("targetRTT p95 %v should beat default-with-backup %v during RTT spikes",
			aware.P95Response, def.P95Response)
	}
	if aware.LTEBytes == 0 {
		t.Errorf("targetRTT never engaged LTE during the spike")
	}
}

// TestReceiverComparisonShapes asserts §4.2: the optimized receiver
// delivers no later and holds nothing at the subflow level.
func TestReceiverComparisonShapes(t *testing.T) {
	results, err := ReceiverComparison(17)
	if err != nil {
		t.Fatal(err)
	}
	var legacy, opt ReceiverResult
	for _, r := range results {
		if r.Mode == mptcp.ReceiverLegacy {
			legacy = r
		} else {
			opt = r
		}
	}
	t.Logf("legacy: mean=%v fct=%v held=%d; optimized: mean=%v fct=%v",
		legacy.MeanDeliveryLatency, legacy.FCT, legacy.HeldSegments,
		opt.MeanDeliveryLatency, opt.FCT)
	if legacy.HeldSegments == 0 {
		t.Errorf("legacy receiver held no segments; scenario generated no subflow gaps")
	}
	if opt.HeldSegments != 0 {
		t.Errorf("optimized receiver must not hold segments at the subflow level")
	}
	if opt.MeanDeliveryLatency > legacy.MeanDeliveryLatency {
		t.Errorf("optimized mean delivery latency %v exceeds legacy %v",
			opt.MeanDeliveryLatency, legacy.MeanDeliveryLatency)
	}
}

// TestOverheadShapes asserts Fig. 9 top: all programmable back-ends
// cost more than native, the interpreter is the slowest, and the
// compiled back-ends narrow the gap.
func TestOverheadShapes(t *testing.T) {
	results, err := ExecutionOverhead(20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatOverhead(results))
	byKey := map[string]OverheadResult{}
	for _, r := range results {
		byKey[r.Backend+"/"+itoa(r.Subflows)] = r
	}
	for _, n := range []string{"2", "4"} {
		interp := byKey["interpreter/"+n]
		compiled := byKey["compiled/"+n]
		if interp.RelativeToNative < 1.0 {
			t.Errorf("%s subflows: interpreter (%.0f%%) should cost more than native", n, interp.RelativeToNative*100)
		}
		if compiled.NsPerOp > interp.NsPerOp {
			t.Errorf("%s subflows: compiled (%.0fns) should beat the interpreter (%.0fns)",
				n, compiled.NsPerOp, interp.NsPerOp)
		}
	}
}

func itoa(n int) string {
	if n == 2 {
		return "2"
	}
	return "4"
}

// TestThroughputParityShapes asserts Fig. 9 bottom: goodput unchanged
// across back-ends (within 2%).
func TestThroughputParityShapes(t *testing.T) {
	results, err := ThroughputParity(23)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatParity(results))
	base := results[0].GoodputBps
	for _, r := range results {
		diff := r.GoodputBps/base - 1
		if diff < -0.02 || diff > 0.02 {
			t.Errorf("backend %s goodput %.2f MB/s deviates from native %.2f MB/s",
				r.Backend, r.GoodputBps/1e6, base/1e6)
		}
	}
}

// TestUpcallOverheadShape asserts §4.1: the up-call architecture costs
// several times a direct in-stack execution.
func TestUpcallOverheadShape(t *testing.T) {
	res, err := UpcallOverhead(20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("direct %.0f ns, upcall %.0f ns, factor %.1fx", res.DirectNsPerOp, res.UpcallNsPerOp, res.Factor)
	if res.Factor < 2 {
		t.Errorf("up-call factor %.1fx, want the architectural gap the paper reports (≈12x in kernel terms)", res.Factor)
	}
}

// TestMemoryFootprints asserts §4.3: footprints stay in the low
// kilobytes per program and a few hundred bytes per instance.
func TestMemoryFootprints(t *testing.T) {
	results, err := MemoryFootprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-12s program %6d B, instance %4d B", r.Scheduler, r.ProgramBytes, r.InstanceBytes)
		if r.ProgramBytes <= 0 || r.ProgramBytes > 64<<10 {
			t.Errorf("%s program footprint %d out of plausible range", r.Scheduler, r.ProgramBytes)
		}
		if r.InstanceBytes <= 0 || r.InstanceBytes > 1024 {
			t.Errorf("instance footprint %d out of plausible range", r.InstanceBytes)
		}
	}
}

// TestProbingShapes asserts the Table 2 probing row: when an idle
// path silently becomes the better one under a thin flow, only the
// probing scheduler notices and migrates.
func TestProbingShapes(t *testing.T) {
	def, err := Probing("minRTT", 19)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := Probing("probingMinRTT", 19)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("default: mean=%v fast-path-share=%.0f%%; probing: mean=%v fast-path-share=%.0f%%",
		def.MeanResponse, def.FastPathShare*100, probe.MeanResponse, probe.FastPathShare*100)
	if def.Responses == 0 || probe.Responses == 0 {
		t.Fatal("no measured responses")
	}
	if def.FastPathShare > 0.2 {
		t.Errorf("default migrated to the idle path (%.0f%%) despite a stale estimate; scenario broken",
			def.FastPathShare*100)
	}
	if probe.FastPathShare < 0.5 {
		t.Errorf("probing scheduler failed to migrate (fast-path share %.0f%%)", probe.FastPathShare*100)
	}
	if probe.MeanResponse >= def.MeanResponse {
		t.Errorf("probing mean response %v should beat default %v once the idle path improved",
			probe.MeanResponse, def.MeanResponse)
	}
}

// TestOpportunisticRetransmissionShape asserts §3.4's feature: under a
// tight receive window and strongly heterogeneous RTTs, the default
// scheduler extended with opportunistic retransmission completes a
// bulk transfer faster than the plain default, by re-sending
// window-blocking slow-path packets on the fast subflow.
func TestOpportunisticRetransmissionShape(t *testing.T) {
	plain, err := Opportunistic("minRTT", 33)
	if err != nil {
		t.Fatal(err)
	}
	opp, err := Opportunistic("minRTTOpportunistic", 33)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain: fct=%v %.2f MB/s; opportunistic: fct=%v %.2f MB/s",
		plain.FCT, plain.Goodput/1e6, opp.FCT, opp.Goodput/1e6)
	if !plain.Completed || !opp.Completed {
		t.Fatalf("transfers incomplete (plain %v, opportunistic %v)", plain.Completed, opp.Completed)
	}
	if opp.FCT >= plain.FCT {
		t.Errorf("opportunistic retransmission (%v) should beat the plain default (%v) under window blocking",
			opp.FCT, plain.FCT)
	}
}
