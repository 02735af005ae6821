package main

import (
	"fmt"
	"math"
	"sort"
)

// A repetition is one pass over a workload's slice sequence: the wall
// time of every slice and the work it did (segments, executions,
// events). The workloads are deterministic for a seed, so every
// repetition of a run does the same work slice by slice and only the
// wall times differ.
type repetition struct {
	ns   []int64
	work []int64
}

// add appends one slice.
func (r *repetition) add(ns, work int64) {
	r.ns = append(r.ns, ns)
	r.work = append(r.work, work)
}

// quietTime is the estimator every wall-timed number goes through:
// T = Σ_i min_r t[r][i], the time the slice sequence takes when each
// slice runs as undisturbed as it did in its best repetition. A
// preemption or GC pause that hits slice i in one repetition is
// dropped as long as one other repetition ran that slice clean, which
// a whole-run minimum cannot do. It fails when repetitions disagree on
// the slice count or on any slice's work: then they did not time the
// same thing.
func quietTime(reps []repetition) (totalNS, work int64, err error) {
	if len(reps) == 0 || len(reps[0].ns) == 0 {
		return 0, 0, fmt.Errorf("estimator: no slices")
	}
	first := reps[0]
	for r, rep := range reps[1:] {
		if len(rep.ns) != len(first.ns) {
			return 0, 0, fmt.Errorf("estimator: repetition %d has %d slices, repetition 0 has %d", r+1, len(rep.ns), len(first.ns))
		}
		for i := range rep.work {
			if rep.work[i] != first.work[i] {
				return 0, 0, fmt.Errorf("estimator: slice %d did %d units of work in repetition %d and %d in repetition 0", i, rep.work[i], r+1, first.work[i])
			}
		}
	}
	for i := range first.ns {
		best := first.ns[i]
		for _, rep := range reps[1:] {
			if rep.ns[i] < best {
				best = rep.ns[i]
			}
		}
		totalNS += best
		work += first.work[i]
	}
	return totalNS, work, nil
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the nearest-rank q-quantile of sorted samples with
// the number of samples strictly beyond it, so a report can state how
// much of a tail the figure rests on (a p99 with two samples beyond it
// is an anecdote).
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n - 1 - rank
}
