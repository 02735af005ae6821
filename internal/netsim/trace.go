package netsim

import (
	"sort"
	"time"
)

// Sample is one recorded measurement.
type Sample struct {
	At    time.Duration
	Value float64
}

// Recorder collects named time series during a simulation (the
// measurement half of the experiment harness).
type Recorder struct {
	series map[string][]Sample
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string][]Sample)}
}

// Record appends a sample to the named series.
func (r *Recorder) Record(name string, at time.Duration, value float64) {
	r.series[name] = append(r.series[name], Sample{At: at, Value: value})
}

// Series returns the samples of one series (in recording order).
func (r *Recorder) Series(name string) []Sample { return r.series[name] }

// Sum totals a series' values.
func (r *Recorder) Sum(name string) float64 {
	var s float64
	for _, sample := range r.series[name] {
		s += sample.Value
	}
	return s
}

// Mean averages a series; it returns 0 for an empty series.
func (r *Recorder) Mean(name string) float64 {
	ss := r.series[name]
	if len(ss) == 0 {
		return 0
	}
	return r.Sum(name) / float64(len(ss))
}

// Percentile returns the p-quantile (0..1) of a series' values.
func (r *Recorder) Percentile(name string, p float64) float64 {
	ss := r.series[name]
	if len(ss) == 0 {
		return 0
	}
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = s.Value
	}
	sort.Float64s(vals)
	idx := int(p * float64(len(vals)-1))
	return vals[idx]
}
