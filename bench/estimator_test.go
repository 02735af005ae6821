package main

import (
	"math"
	"testing"
)

// matrix builds repetitions from t[r][i] with the same work in every
// repetition.
func matrix(work []int64, t ...[]int64) []repetition {
	reps := make([]repetition, len(t))
	for r := range t {
		for i, ns := range t[r] {
			reps[r].add(ns, work[i])
		}
	}
	return reps
}

func TestQuietTimeDropsOutliers(t *testing.T) {
	work := []int64{10, 20, 30, 40}
	clean := []int64{100, 200, 300, 400}
	want, _, err := quietTime(matrix(work, clean, clean, clean))
	if err != nil || want != 1000 {
		t.Fatalf("clean matrix: T = %d, %v; want 1000", want, err)
	}
	// Every repetition is hit by a 3× outlier, each in another slice:
	// the whole-run minimum moves, T does not.
	hit := func(i int) []int64 {
		row := append([]int64(nil), clean...)
		row[i] *= 3
		return row
	}
	got, gotWork, err := quietTime(matrix(work, hit(0), hit(1), hit(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("T with outliers = %d, want %d", got, want)
	}
	if gotWork != 100 {
		t.Errorf("work = %d, want 100", gotWork)
	}
	// A slice that is slow in every repetition is not an outlier.
	slow, _, _ := quietTime(matrix(work, hit(2), hit(2)))
	if slow != want+600 {
		t.Errorf("T with a consistently slow slice = %d, want %d", slow, want+600)
	}
}

func TestQuietTimeRejectsDifferentWork(t *testing.T) {
	a := matrix([]int64{1, 2}, []int64{10, 10})
	b := matrix([]int64{1, 3}, []int64{10, 10})
	if _, _, err := quietTime(append(a, b...)); err == nil {
		t.Error("repetitions that did different work were accepted")
	}
	short := matrix([]int64{1}, []int64{10})
	if _, _, err := quietTime(append(a, short...)); err == nil {
		t.Error("repetitions with different slice counts were accepted")
	}
	if _, _, err := quietTime(nil); err == nil {
		t.Error("no repetitions were accepted")
	}
}

func TestGeomeanMedianQuantile(t *testing.T) {
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean() = %v, want 0", g)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median(5, 1, 3) = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4, 1, 3, 2) = %v, want 2.5", m)
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      int64
		beyond int
	}{{0.50, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}, {0, 1, 999}} {
		v, beyond := quantile(sorted, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(%v) = %d with %d beyond, want %d with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("quantile of nothing = %d, %d", v, beyond)
	}
}
