package obs

import (
	"sort"
	"sync"
)

// Labels identifies one metrics source within an Aggregator: the
// connection it belongs to, the scheduler it runs, and optionally the
// path/subflow it measures. Empty fields are omitted from exposition.
type Labels struct {
	Conn      string `json:"conn,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Path      string `json:"path,omitempty"`
}

// pairs returns the non-empty label pairs in canonical (sorted-key)
// order: conn, path, scheduler.
func (l Labels) pairs() [][2]string {
	var out [][2]string
	if l.Conn != "" {
		out = append(out, [2]string{"conn", l.Conn})
	}
	if l.Path != "" {
		out = append(out, [2]string{"path", l.Path})
	}
	if l.Scheduler != "" {
		out = append(out, [2]string{"scheduler", l.Scheduler})
	}
	return out
}

// Aggregator merges metric registries across connections and shards:
// the fleet tier of the observability layer. Each attached Registry is
// one labeled source (typically one per connection, plus an unlabeled
// engine/process registry); Aggregate reads every source and merges
// same-named metrics — counters sum, gauges keep last/min/max/sum,
// histograms merge bucket-by-bucket so quantiles of the union are
// exact to bucket resolution.
//
// Aggregation is lock-cheap by construction: sources register once
// (write lock), Aggregate takes a read lock on the source list and
// then touches only each registry's name->handle map lock plus atomic
// loads — the data-path writers never contend with it after handle
// resolution.
type Aggregator struct {
	mu      sync.RWMutex
	sources []Source
}

// Source is one attached registry with its identity labels.
type Source struct {
	Labels   Labels
	Registry *Registry
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Attach registers reg as a source under the given labels. Attaching
// the same registry twice double-counts it; use distinct registries
// per source. Safe on a nil *Aggregator (no-op).
func (a *Aggregator) Attach(labels Labels, reg *Registry) {
	if a == nil || reg == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Copy-on-write: Aggregate iterates a snapshot of this slice after
	// releasing the lock, so the backing array must never be mutated.
	next := make([]Source, len(a.sources)+1)
	copy(next, a.sources)
	next[len(a.sources)] = Source{Labels: labels, Registry: reg}
	a.sources = next
}

// Remove deregisters every source backed by reg and reports whether
// any source was removed. Wire it into connection teardown: a finished
// connection whose registry stays attached keeps riding every fleet
// merge and OpenMetrics exposition forever — at fleet scale that is
// both a memory leak and a stale-series bug. Safe on nil. Concurrent
// Aggregate calls that already snapshotted the source list still merge
// the removed source once (copy-on-write semantics); every later call
// no longer sees it.
func (a *Aggregator) Remove(reg *Registry) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Copy-on-write like Attach: Aggregate iterates snapshots of this
	// slice after releasing the lock, so never mutate the backing array.
	kept := make([]Source, 0, len(a.sources))
	for _, s := range a.sources {
		if s.Registry != reg {
			kept = append(kept, s)
		}
	}
	removed := len(kept) != len(a.sources)
	a.sources = kept
	return removed
}

// NumSources reports the number of attached sources. Safe on nil.
func (a *Aggregator) NumSources() int {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.sources)
}

// GaugeAgg is the cross-source merge of one gauge: the value of the
// last source in attach order plus the min/max/sum over sources, so
// both "current" and "spread" readings survive aggregation.
type GaugeAgg struct {
	Last int64 `json:"last"`
	Min  int64 `json:"min"`
	Max  int64 `json:"max"`
	Sum  int64 `json:"sum"`
}

// HistAgg is the cross-source bucket merge of one histogram with its
// interpolated quantiles. Buckets stay exact under merging (bucket
// counts sum), so merged quantiles have the same bucket resolution as
// a single histogram's.
type HistAgg struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	// Buckets carries the merged power-of-two bucket counts for
	// exposition; it is omitted from JSON to keep snapshots compact.
	Buckets [histBuckets]int64 `json:"-"`
}

// quantiles fills the derived fields from Count/Sum/Buckets.
func (h *HistAgg) quantiles() {
	if h.Count == 0 {
		return
	}
	h.Mean = float64(h.Sum) / float64(h.Count)
	h.P50 = quantileOf(&h.Buckets, h.Count, 0.50)
	h.P99 = quantileOf(&h.Buckets, h.Count, 0.99)
	h.P999 = quantileOf(&h.Buckets, h.Count, 0.999)
}

// MergeHistogram folds one histogram's current state into the
// accumulator (bucket-by-bucket).
func (h *HistAgg) MergeHistogram(src *Histogram) {
	if src == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		h.Buckets[i] += src.buckets[i].Load()
	}
	h.Count += src.Count()
	h.Sum += src.Sum()
}

// LabeledSnapshot is one source's point-in-time values with its
// identity labels (the exposition layer's per-series view).
type LabeledSnapshot struct {
	Labels Labels   `json:"labels"`
	Snap   Snapshot `json:"snap"`
}

// AggSnapshot is a point-in-time merge across every attached source.
type AggSnapshot struct {
	// NumSources is the number of sources merged.
	NumSources int `json:"num_sources"`
	// Counters sum across sources.
	Counters map[string]int64 `json:"counters"`
	// Gauges keep last/min/max/sum across sources.
	Gauges map[string]GaugeAgg `json:"gauges"`
	// Hists merge bucket-by-bucket across sources.
	Hists map[string]HistAgg `json:"hists"`
	// Sources holds each source's own snapshot for labeled exposition.
	Sources []LabeledSnapshot `json:"sources,omitempty"`
}

// Aggregate merges a snapshot of every source. Safe on nil (returns an
// empty snapshot). Values are read with atomic loads while writers are
// live, so the result is a consistent-enough fleet view: each metric
// is internally consistent, cross-metric skew is bounded by the scan.
func (a *Aggregator) Aggregate() AggSnapshot {
	out := AggSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]GaugeAgg{},
		Hists:    map[string]HistAgg{},
	}
	if a == nil {
		return out
	}
	a.mu.RLock()
	sources := a.sources
	a.mu.RUnlock()
	out.NumSources = len(sources)
	for _, src := range sources {
		ls := LabeledSnapshot{Labels: src.Labels, Snap: Snapshot{
			Counters: map[string]int64{},
			Gauges:   map[string]int64{},
			Hists:    map[string]HistSnapshot{},
		}}
		// One pass per source through the registry's Each visitor: the
		// labeled per-source snapshot and the merged totals are built
		// together, without copying the metric maps.
		src.Registry.Each(func(name string, m Metric) {
			switch m := m.(type) {
			case *Counter:
				v := m.Value()
				ls.Snap.Counters[name] = v
				out.Counters[name] += v
			case *Gauge:
				v := m.Value()
				ls.Snap.Gauges[name] = v
				g, ok := out.Gauges[name]
				if !ok {
					g = GaugeAgg{Last: v, Min: v, Max: v, Sum: v}
				} else {
					g.Last = v
					if v < g.Min {
						g.Min = v
					}
					if v > g.Max {
						g.Max = v
					}
					g.Sum += v
				}
				out.Gauges[name] = g
			case *Histogram:
				ls.Snap.Hists[name] = m.summarize()
				h := out.Hists[name]
				h.MergeHistogram(m)
				out.Hists[name] = h
			}
		})
		out.Sources = append(out.Sources, ls)
	}
	for name, h := range out.Hists {
		h.quantiles()
		out.Hists[name] = h
	}
	return out
}

// CounterNames returns the sorted union of counter names across the
// merged sources (exposition order).
func (s *AggSnapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// GaugeNames returns the sorted union of gauge names.
func (s *AggSnapshot) GaugeNames() []string { return sortedKeys(s.Gauges) }

// HistNames returns the sorted union of histogram names.
func (s *AggSnapshot) HistNames() []string { return sortedKeys(s.Hists) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
