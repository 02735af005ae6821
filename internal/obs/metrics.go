package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter is a
// valid no-op, so instrumented code can hold unconditionally-called
// pointers that are only non-nil when a registry is attached.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on nil.
//
//progmp:hotpath
//progmp:deterministic
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one and returns the new count, so a
// caller can key a sampling decision on the shared count. Safe on nil
// (returns 0).
//
//progmp:hotpath
//progmp:deterministic
func (c *Counter) Inc() int64 {
	if c == nil {
		return 0
	}
	return c.v.Add(1)
}

// Value returns the current count. Safe on nil (returns 0).
//
//progmp:hotpath
//progmp:deterministic
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value. A nil *Gauge is a valid no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on nil.
//
//progmp:hotpath
//progmp:deterministic
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last stored value. Safe on nil (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket
// 0 holds values <= 0, bucket i holds values in [2^(i-1), 2^i).
const histBuckets = 64

// Histogram accumulates int64 observations into power-of-two buckets;
// enough resolution for latency (µs) and size (bytes) distributions
// without per-observation allocation. A nil *Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Safe on nil.
//
//progmp:hotpath
//progmp:deterministic
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations. Safe on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations. Safe on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile approximates the q-quantile: the rank's bucket is located
// and the value is linearly interpolated between the bucket's bounds by
// the rank's position among the bucket's observations, so tight latency
// distributions are not quantized to the next power of two. q is
// clamped to [0, 1] (q <= 0 is the minimum, q >= 1 the maximum); an
// empty histogram reports 0. Safe on nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	var buckets [histBuckets]int64
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return quantileOf(&buckets, n, q)
}

// quantileOf computes the interpolated q-quantile of a bucket array
// with n total observations (shared by Histogram.Quantile and the
// aggregator's merged histograms). q outside [0, 1] is clamped: a
// negative q used to compute a negative rank (interpolating below the
// bucket floor) and q > 1 a rank past every bucket (reporting the
// 2^63-1 sentinel reserved for a corrupt bucket sum).
func quantileOf(buckets *[histBuckets]int64, n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Round the rank rather than truncate so high quantiles of small
	// populations (p999 of 3 observations) select the top sample.
	rank := int64(q*float64(n-1) + 0.5)
	var seen int64
	for i := 0; i < histBuckets; i++ {
		cnt := buckets[i]
		seen += cnt
		if seen <= rank {
			continue
		}
		if i == 0 {
			return 0
		}
		// Bucket i holds [2^(i-1), 2^i); place the rank within it.
		lo := float64(int64(1) << uint(i-1))
		hi := lo * 2
		if i >= 63 {
			hi = float64(1<<63 - 1)
		}
		before := seen - cnt
		frac := float64(rank-before) / float64(cnt)
		return int64(lo + (hi-lo)*frac)
	}
	return 1<<63 - 1
}

// Buckets copies the current bucket counts (bucket 0 holds values
// <= 0, bucket i holds [2^(i-1), 2^i)). Safe on nil (returns zeros).
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// NumHistBuckets exposes the histogram bucket count to consumers that
// merge or expose raw buckets (the aggregator, the OpenMetrics
// exporter).
const NumHistBuckets = histBuckets

// BucketUpperBound returns the exclusive upper bound of bucket i (the
// OpenMetrics "le" boundary is BucketUpperBound(i)-1, inclusive).
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 1 // bucket 0 holds values <= 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i)
}

// MetricKind discriminates the registry's metric types.
type MetricKind uint8

// The metric kinds, in Each visitation order.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the metric kind as spelled in Render output.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("MetricKind(%d)", int(k))
}

// Metric is the common interface of the registry's metric handles
// (*Counter, *Gauge, *Histogram), for consumers that visit a registry
// generically via Each.
type Metric interface {
	Kind() MetricKind
}

// Kind identifies a *Counter.
func (c *Counter) Kind() MetricKind { return KindCounter }

// Kind identifies a *Gauge.
func (g *Gauge) Kind() MetricKind { return KindGauge }

// Kind identifies a *Histogram.
func (h *Histogram) Kind() MetricKind { return KindHistogram }

// Registry holds named metrics. Metric handles are created on first
// use and stable thereafter, so hot paths resolve them once and then
// touch only atomics. The zero value is ready to use; a nil *Registry
// hands out nil handles, which are themselves no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it if needed. Safe on
// nil (returns a nil no-op handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Safe on nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. Safe
// on nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Each visits every registered metric without copying the metric
// maps: counters, then gauges, then histograms, each in registration-
// independent map order. The registry lock is held for the duration,
// so fn must not create metrics on r (reads of other metrics and of
// the visited handles are fine — values are atomics). Safe on nil.
func (r *Registry) Each(fn func(name string, m Metric)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		fn(name, c)
	}
	for name, g := range r.gauges {
		fn(name, g)
	}
	for name, h := range r.hists {
		fn(name, h)
	}
}

// Snapshot is a point-in-time copy of the registry's values.
type Snapshot struct {
	Counters map[string]int64        `json:"counters"`
	Gauges   map[string]int64        `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"hists"`
}

// HistSnapshot summarizes one histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
}

// summarize condenses a histogram into its snapshot form.
func (h *Histogram) summarize() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// Snapshot copies the registry's current values. Safe on nil.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
	r.Each(func(name string, m Metric) {
		switch m := m.(type) {
		case *Counter:
			snap.Counters[name] = m.Value()
		case *Gauge:
			snap.Gauges[name] = m.Value()
		case *Histogram:
			snap.Hists[name] = m.summarize()
		}
	})
	return snap
}

// Render formats the registry as an aligned proc-style text page,
// sorted by metric name within each section. Safe on nil.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	var b strings.Builder
	writeSection := func(kind string, names []string, line func(string)) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%-9s %-40s ", kind, name)
			line(name)
		}
	}
	counterNames := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		counterNames = append(counterNames, name)
	}
	writeSection("counter", counterNames, func(name string) {
		fmt.Fprintf(&b, "%d\n", snap.Counters[name])
	})
	gaugeNames := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		gaugeNames = append(gaugeNames, name)
	}
	writeSection("gauge", gaugeNames, func(name string) {
		fmt.Fprintf(&b, "%d\n", snap.Gauges[name])
	})
	histNames := make([]string, 0, len(snap.Hists))
	for name := range snap.Hists {
		histNames = append(histNames, name)
	}
	writeSection("histogram", histNames, func(name string) {
		h := snap.Hists[name]
		fmt.Fprintf(&b, "n=%d mean=%.1f p50=%d p99=%d p999=%d sum=%d\n",
			h.Count, h.Mean, h.P50, h.P99, h.P999, h.Sum)
	})
	return b.String()
}
