package obs

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvPush, Seq: int64(i)})
	}
	if got := tr.total; got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first: seqs 6,7,8,9.
	for i, ev := range evs {
		if want := int64(6 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Record(Event{Kind: EvPop, Seq: int64(i)})
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Kind: EvPush})
	if tr.NextExecID() != 0 || tr.RegisterConn() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer methods must be no-ops")
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := NewTracer(1 << 10)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn := tr.RegisterConn()
			for i := 0; i < per; i++ {
				exec := tr.NextExecID()
				tr.Record(Event{Kind: EvPush, Conn: conn, Exec: exec, Seq: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := tr.total; got != goroutines*per {
		t.Fatalf("Total = %d, want %d", got, goroutines*per)
	}
	if got := len(tr.Events()); got != 1<<10 {
		t.Fatalf("retained %d events, want full ring %d", got, 1<<10)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvExecStart; k < numEventKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "EventKind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("round trip of %q: got %v, %v", name, back, ok)
		}
	}
	if _, ok := KindFromString("NOT_A_KIND"); ok {
		t.Fatal("unknown name should not resolve")
	}
}

func TestWriteJSONLGolden(t *testing.T) {
	events := []Event{
		{At: 1500 * time.Microsecond, Kind: EvExecStart, Conn: 1, Exec: 7, Seq: -1, Sbf: -1},
		{At: 1500 * time.Microsecond, Kind: EvPush, Conn: 1, Exec: 7, Seq: 42, Sbf: 2, Site: 13, Aux: 1460},
		{At: 1501 * time.Microsecond, Kind: EvExecEnd, Conn: 1, Exec: 7, Seq: -1, Sbf: -1, Aux: 2},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := `{"at_us":1500,"ev":"EXEC_START","conn":1,"exec":7,"seq":-1,"sbf":-1,"site":0,"aux":0}
{"at_us":1500,"ev":"PUSH","conn":1,"exec":7,"seq":42,"sbf":2,"site":13,"aux":1460}
{"at_us":1501,"ev":"EXEC_END","conn":1,"exec":7,"seq":-1,"sbf":-1,"site":0,"aux":2}
`
	if buf.String() != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	parsed, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parsed, events) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", parsed, events)
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	events := []Event{
		{At: 10 * time.Microsecond, Kind: EvExecStart, Conn: 1, Exec: 3, Seq: -1, Sbf: -1},
		{At: 10 * time.Microsecond, Kind: EvPush, Conn: 1, Exec: 3, Seq: 5, Sbf: 0, Site: 2, Aux: 100},
		{At: 12 * time.Microsecond, Kind: EvExecEnd, Conn: 1, Exec: 3, Seq: -1, Sbf: -1, Aux: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") || !strings.HasSuffix(out, "]\n") {
		t.Fatalf("not a JSON array:\n%s", out)
	}
	for _, want := range []string{
		`"name":"exec 3","ph":"B"`,
		`"name":"exec 3","ph":"E"`,
		`"name":"PUSH","ph":"i"`,
		`"pid":1,"tid":1,"s":"t"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace lacks %q:\n%s", want, out)
		}
	}
}

func TestRegistryAndRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count")
	if c != reg.Counter("a.count") {
		t.Fatal("counter handle not stable")
	}
	c.Add(2)
	if n := c.Inc(); n != 3 {
		t.Fatalf("Inc after Add(2) returned %d, want the new count 3", n)
	}
	reg.Gauge("b.gauge").Set(-2)
	h := reg.Histogram("c.hist")
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	if snap.Counters["a.count"] != 3 || snap.Gauges["b.gauge"] != -2 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	if hs := snap.Hists["c.hist"]; hs.Count != 4 || hs.Sum != 106 {
		t.Fatalf("bad hist snapshot: %+v", hs)
	}
	out := snap.Render()
	for _, want := range []string{"counter", "a.count", "3", "gauge", "b.gauge", "-2", "histogram", "c.hist", "n=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	if n := reg.Counter("x").Inc(); n != 0 {
		t.Fatalf("nil counter Inc = %d", n)
	}
	reg.Gauge("x").Set(1)
	reg.Histogram("x").Observe(1)
	if got := reg.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if out := reg.Snapshot().Render(); out != "" {
		t.Fatalf("nil registry renders %q", out)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// Power-of-two buckets with linear interpolation inside the rank's
	// bucket: p50 of uniform 1..1000 comes out within a few counts of
	// the true median instead of being quantized to the bucket bound.
	if got := h.Quantile(0.5); got < 490 || got > 510 {
		t.Fatalf("p50 = %d, want ~500", got)
	}
	// p99 (true 990) lands in [512,1024); interpolation keeps it well
	// below the 1024 bound the pre-interpolation code reported.
	if got := h.Quantile(0.99); got < 900 || got >= 1024 {
		t.Fatalf("p99 = %d, want in [900,1024)", got)
	}
	if got := h.Mean(); got < 500 || got > 501 {
		t.Fatalf("mean = %f, want 500.5", got)
	}
}

func TestHistogramQuantileInterpolationTight(t *testing.T) {
	// A tight latency distribution entirely inside one bucket: 200
	// observations uniform over [520, 719] all land in [512, 1024).
	// Bucket-bound quantiles would report 1024 for every percentile;
	// interpolation must spread estimates across the bucket and order
	// them.
	h := &Histogram{}
	for i := int64(0); i < 200; i++ {
		h.Observe(520 + i)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 >= p99 {
		t.Fatalf("p50 %d >= p99 %d", p50, p99)
	}
	if p50 < 512 || p50 >= 1024 || p99 < 512 || p99 >= 1024 {
		t.Fatalf("quantiles escaped the bucket: p50=%d p99=%d", p50, p99)
	}
	// The true p50 is ~620; allow the bucket's linear model its error
	// but require it beats the 2x quantization of the bucket bound.
	if p50 > 900 {
		t.Fatalf("p50 = %d, interpolation not effective", p50)
	}
}

func TestRegistryEach(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(7)
	reg.Gauge("a.gauge").Set(-3)
	reg.Histogram("a.hist").Observe(9)
	seen := map[string]MetricKind{}
	reg.Each(func(name string, m Metric) {
		seen[name] = m.Kind()
	})
	want := map[string]MetricKind{
		"a.count": KindCounter,
		"a.gauge": KindGauge,
		"a.hist":  KindHistogram,
	}
	if len(seen) != len(want) {
		t.Fatalf("Each visited %v, want %v", seen, want)
	}
	for name, kind := range want {
		if seen[name] != kind {
			t.Fatalf("Each saw %q as %v, want %v", name, seen[name], kind)
		}
	}
	var nilReg *Registry
	nilReg.Each(func(string, Metric) { t.Fatal("nil registry visited a metric") })
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	qs := []float64{-0.1, 0, 0.5, 1, 1.1}

	// Empty histogram: every quantile (clamped or not) is 0, never an
	// index past the bucket array or the 2^63-1 sentinel.
	empty := &Histogram{}
	for _, q := range qs {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// Single observation: all quantiles collapse onto the one sample's
	// bucket. 100 lives in [64,128); q < 0 must not interpolate below
	// the bucket floor and q > 1 must not run past the bucket array.
	single := &Histogram{}
	single.Observe(100)
	for _, q := range qs {
		got := single.Quantile(q)
		if got < 64 || got >= 128 {
			t.Fatalf("single-obs Quantile(%v) = %d, want in [64,128)", q, got)
		}
	}
	// Out-of-range q clamps to the boundary quantile exactly.
	if single.Quantile(-0.1) != single.Quantile(0) {
		t.Fatalf("Quantile(-0.1) = %d, want Quantile(0) = %d",
			single.Quantile(-0.1), single.Quantile(0))
	}
	if single.Quantile(1.1) != single.Quantile(1) {
		t.Fatalf("Quantile(1.1) = %d, want Quantile(1) = %d",
			single.Quantile(1.1), single.Quantile(1))
	}
}

// TestRegistryJoinBuildsOnce: a registry builds a composed name the
// first time and hands the same string out after, without allocating;
// a nil registry still builds it.
func TestRegistryJoinBuildsOnce(t *testing.T) {
	reg := NewRegistry()
	key := strings.Repeat("w", 3)
	if got := reg.Join("sbf.", key, ".rtos"); got != "sbf.www.rtos" {
		t.Fatalf("Join = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { reg.Counter(reg.Join("sbf.", key, ".rtos")).Add(1) }); n != 0 {
		t.Errorf("resolving a joined name allocates %.0f times after the first", n)
	}
	if got := (*Registry)(nil).Join("a", "b", "c"); got != "abc" {
		t.Errorf("nil registry Join = %q", got)
	}
}
