package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAggregatorMergeSemantics(t *testing.T) {
	a := NewAggregator()
	r1, r2 := NewRegistry(), NewRegistry()
	a.Attach(Labels{Conn: "c1", Scheduler: "minRTT"}, r1)
	a.Attach(Labels{Conn: "c2", Scheduler: "redundant"}, r2)

	r1.Counter("conn.pushes").Add(10)
	r2.Counter("conn.pushes").Add(32)
	r2.Counter("conn.retrans").Add(5)

	r1.Gauge("conn.cwnd").Set(4)
	r2.Gauge("conn.cwnd").Set(20)

	r1.Histogram("conn.lat_ns").Observe(100)
	r1.Histogram("conn.lat_ns").Observe(100)
	r2.Histogram("conn.lat_ns").Observe(100000)

	snap := a.Aggregate()
	if snap.NumSources != 2 {
		t.Fatalf("NumSources = %d, want 2", snap.NumSources)
	}
	if got := snap.Counters["conn.pushes"]; got != 42 {
		t.Fatalf("merged counter = %d, want 42", got)
	}
	if got := snap.Counters["conn.retrans"]; got != 5 {
		t.Fatalf("one-sided counter = %d, want 5", got)
	}
	g := snap.Gauges["conn.cwnd"]
	if g.Last != 20 || g.Min != 4 || g.Max != 20 || g.Sum != 24 {
		t.Fatalf("gauge agg = %+v, want last=20 min=4 max=20 sum=24", g)
	}
	h := snap.Hists["conn.lat_ns"]
	if h.Count != 3 || h.Sum != 100200 {
		t.Fatalf("hist agg count/sum = %d/%d, want 3/100200", h.Count, h.Sum)
	}
	// 2 of 3 observations are 100, so p50 stays in 100's bucket [64,128)
	// and p999 in 100000's bucket [65536,131072).
	if h.P50 < 64 || h.P50 >= 128 {
		t.Fatalf("merged p50 = %d, want in [64,128)", h.P50)
	}
	if h.P999 < 65536 || h.P999 >= 131072 {
		t.Fatalf("merged p999 = %d, want in [65536,131072)", h.P999)
	}

	// Per-source labeled snapshots keep attach order and their own values.
	if len(snap.Sources) != 2 {
		t.Fatalf("Sources = %d entries, want 2", len(snap.Sources))
	}
	if snap.Sources[0].Labels.Conn != "c1" || snap.Sources[1].Labels.Conn != "c2" {
		t.Fatalf("source order/labels wrong: %+v", snap.Sources)
	}
	if snap.Sources[0].Snap.Counters["conn.pushes"] != 10 ||
		snap.Sources[1].Snap.Counters["conn.pushes"] != 32 {
		t.Fatalf("per-source counters wrong: %+v", snap.Sources)
	}

	a.Remove(r1)
	if got := a.NumSources(); got != 1 {
		t.Fatalf("after Remove NumSources = %d, want 1", got)
	}
	if got := a.Aggregate().Counters["conn.pushes"]; got != 32 {
		t.Fatalf("after Remove merged counter = %d, want 32", got)
	}
}

func TestAggregatorNilSafety(t *testing.T) {
	var a *Aggregator
	a.Attach(Labels{Conn: "x"}, NewRegistry())
	a.Remove(nil)
	if a.NumSources() != 0 {
		t.Fatal("nil aggregator has sources")
	}
	snap := a.Aggregate()
	if snap.NumSources != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil aggregate = %+v, want empty", snap)
	}
	b := NewAggregator()
	b.Attach(Labels{}, nil) // nil registry must be ignored
	if b.NumSources() != 0 {
		t.Fatal("nil registry attached")
	}
}

// TestAggregateWithLiveWriters exercises Aggregate concurrently with
// hot-path writers on every attached registry; run under -race this is
// the aggregation-vs-data-path safety test.
func TestAggregateWithLiveWriters(t *testing.T) {
	a := NewAggregator()
	const sources = 4
	regs := make([]*Registry, sources)
	for i := range regs {
		regs[i] = NewRegistry()
		a.Attach(Labels{Conn: string(rune('a' + i))}, regs[i])
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, reg := range regs {
		wg.Add(1)
		go func(reg *Registry) {
			defer wg.Done()
			c := reg.Counter("w.ops")
			g := reg.Gauge("w.depth")
			h := reg.Histogram("w.lat")
			// Work before checking stop so every writer records at
			// least one operation even if stop closes immediately.
			for i := int64(0); ; i++ {
				c.Add(1)
				g.Set(i % 100)
				h.Observe(i%1000 + 1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(reg)
	}
	// Concurrent attach/detach churn alongside aggregation.
	churn := NewRegistry()
	for i := 0; i < 50; i++ {
		a.Attach(Labels{Conn: "churn"}, churn)
		snap := a.Aggregate()
		if snap.NumSources < sources {
			t.Fatalf("aggregate saw %d sources, want >= %d", snap.NumSources, sources)
		}
		a.Remove(churn)
	}
	close(stop)
	wg.Wait()
	final := a.Aggregate()
	if final.Counters["w.ops"] <= 0 {
		t.Fatal("no writer progress observed")
	}
	var perSource int64
	for _, src := range final.Sources {
		perSource += src.Snap.Counters["w.ops"]
	}
	if perSource != final.Counters["w.ops"] {
		t.Fatalf("per-source sum %d != merged %d (writers stopped)", perSource, final.Counters["w.ops"])
	}
}

// TestHistogramBucketMergeGolden checks the bucket-merge against a
// hand-computed union: merged buckets must equal the element-wise sum
// and merged quantiles must match a single histogram fed the union.
func TestHistogramBucketMergeGolden(t *testing.T) {
	h1, h2, union := &Histogram{}, &Histogram{}, &Histogram{}
	for _, v := range []int64{1, 3, 3, 7, 100, 5000} {
		h1.Observe(v)
		union.Observe(v)
	}
	for _, v := range []int64{2, 7, 900, 900, 1 << 40} {
		h2.Observe(v)
		union.Observe(v)
	}
	var agg HistAgg
	agg.MergeHistogram(h1)
	agg.MergeHistogram(h2)
	agg.quantiles()

	if agg.Count != union.Count() || agg.Sum != union.Sum() {
		t.Fatalf("merge count/sum = %d/%d, want %d/%d",
			agg.Count, agg.Sum, union.Count(), union.Sum())
	}
	for i := 0; i < NumHistBuckets; i++ {
		if want := union.buckets[i].Load(); agg.Buckets[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, agg.Buckets[i], want)
		}
	}
	for _, q := range []struct {
		name string
		got  int64
		want int64
	}{
		{"p50", agg.P50, union.Quantile(0.50)},
		{"p99", agg.P99, union.Quantile(0.99)},
		{"p999", agg.P999, union.Quantile(0.999)},
	} {
		if q.got != q.want {
			t.Fatalf("merged %s = %d, want %d (same as union histogram)", q.name, q.got, q.want)
		}
	}
}

func TestTimeSeriesRingAndJSONL(t *testing.T) {
	a := NewAggregator()
	reg := NewRegistry()
	a.Attach(Labels{Conn: "c1"}, reg)
	c := reg.Counter("ts.ticks")
	h := reg.Histogram("ts.lat")

	ts := NewTimeSeries(a, 4)
	for i := 0; i < 10; i++ {
		c.Add(1)
		h.Observe(int64(i + 1))
		ts.Sample(time.Duration(i) * time.Millisecond)
	}
	if ts.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", ts.Len())
	}
	if ts.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", ts.Dropped())
	}
	samples := ts.Samples()
	for i, s := range samples {
		wantAt := int64((6 + i) * 1000) // ms -> us, oldest retained is tick 6
		if s.AtUS != wantAt {
			t.Fatalf("sample %d at %d us, want %d", i, s.AtUS, wantAt)
		}
		if s.Counters["ts.ticks"] != int64(6+i+1) {
			t.Fatalf("sample %d counter = %d, want %d", i, s.Counters["ts.ticks"], 6+i+1)
		}
		if s.Sources != 1 {
			t.Fatalf("sample %d sources = %d, want 1", i, s.Sources)
		}
	}
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"at_us":`) || !strings.Contains(line, `"ts.ticks"`) {
			t.Fatalf("bad JSONL line: %s", line)
		}
	}
}

func TestTimeSeriesDefaultCapacity(t *testing.T) {
	ts := NewTimeSeries(NewAggregator(), 0)
	if got := len(ts.ring); got != DefaultTimeSeriesCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTimeSeriesCapacity)
	}
}

func TestAggregatorRemove(t *testing.T) {
	a := NewAggregator()
	r1, r2 := NewRegistry(), NewRegistry()
	a.Attach(Labels{Conn: "c1"}, r1)
	a.Attach(Labels{Conn: "c2"}, r2)
	r1.Counter("conn.pushes").Add(10)
	r2.Counter("conn.pushes").Add(32)

	if !a.Remove(r2) {
		t.Fatal("Remove(r2) = false, want true")
	}
	if a.Remove(r2) {
		t.Fatal("second Remove(r2) = true, want false")
	}
	if n := a.NumSources(); n != 1 {
		t.Fatalf("NumSources = %d after Remove, want 1", n)
	}

	// The merge and the exposition both drop the removed source: its
	// labeled series is gone and its counters no longer contribute.
	snap := a.Aggregate()
	if got := snap.Counters["conn.pushes"]; got != 10 {
		t.Fatalf("merged counter = %d after Remove, want 10", got)
	}
	text := RenderOpenMetrics(snap)
	if strings.Contains(text, `conn="c2"`) {
		t.Fatalf("exposition still carries removed source:\n%s", text)
	}
	if !strings.Contains(text, `conn="c1"`) {
		t.Fatalf("exposition lost surviving source:\n%s", text)
	}

	// Removing a registry attached under several labels drops them all.
	a.Attach(Labels{Conn: "c1", Path: "wifi"}, r1)
	if !a.Remove(r1) {
		t.Fatal("Remove(r1) = false, want true")
	}
	if n := a.NumSources(); n != 0 {
		t.Fatalf("NumSources = %d, want 0", n)
	}

	var nilAgg *Aggregator
	if nilAgg.Remove(r1) {
		t.Fatal("nil Aggregator Remove = true, want false")
	}
}
