package main

import (
	"fmt"
	"io"
	"time"

	"progmp/internal/netsim"
)

// sizes fixes how much work one repetition of each workload does. The
// work per repetition never depends on the time budget — only the
// number of repetitions does — so virtual-time metrics are the same at
// any -seconds.
type sizes struct {
	streamVirtual    time.Duration // stream_shallowq: measured virtual time
	redundantVirtual time.Duration // redundant_4path: measured virtual time
	warmup           time.Duration // streams: virtual time before measuring
	bulkBytes        int           // bulk_deepq: the one write
	churnConns       int           // fleet_churn
	sharedConns      int           // fleet_shared
	fleetVirtual     time.Duration // fleets: virtual horizon of one fleet.Run
	fleetSeeds       int           // fleets: derived seeds (= slices) per repetition
	minReps          int           // repetitions even when the budget is spent
	execBatch        int           // exec_corpus: executions per vm slice
	execSlices       int           // exec_corpus: slices per cell and repetition
	probeOps         int           // layer probes: operations per slice
}

// fullSize is what `go run` measures; shortSize is the `go test` scale,
// which exists to exercise every code path in seconds, not to measure.
var (
	fullSize = sizes{
		streamVirtual:    200 * time.Second,
		redundantVirtual: 40 * time.Second,
		warmup:           2 * time.Second,
		bulkBytes:        64 << 20,
		churnConns:       1500,
		sharedConns:      1000,
		fleetVirtual:     time.Second,
		fleetSeeds:       2,
		minReps:          3,
		execBatch:        200,
		execSlices:       5,
		probeOps:         2000,
	}
	shortSize = sizes{
		streamVirtual:    time.Second,
		redundantVirtual: time.Second,
		warmup:           200 * time.Millisecond,
		bulkBytes:        1 << 20,
		churnConns:       20,
		sharedConns:      20,
		fleetVirtual:     250 * time.Millisecond,
		fleetSeeds:       2,
		minReps:          2,
		execBatch:        20,
		execSlices:       2,
		probeOps:         50,
	}
)

// runConfig is what one workload run is given.
type runConfig struct {
	seed   int64
	budget time.Duration // wall time for timed repetitions; 0 = minReps only
	traced bool          // second pass: spans, layer counts, per-layer metrics
	probes bool          // a traced simulation also runs the corpora and the layer probes
	size   sizes
	log    io.Writer // progress and oracle failures
}

// repeat runs once(r) for r = 0, 1, ... until another repetition would
// overrun the budget, and at least min times. It returns the number of
// repetitions made.
func repeat(budget time.Duration, min int, once func(r int) error) (int, error) {
	const maxReps = 256
	start := time.Now()
	for r := 0; ; r++ {
		if err := once(r); err != nil {
			return r, err
		}
		done := r + 1
		elapsed := time.Since(start)
		if done >= maxReps || (done >= min && elapsed+elapsed/time.Duration(done) > budget) {
			return done, nil
		}
	}
}

// tally counts checked operations and the ones that failed a check; it
// becomes the run's attempted/failed/correct and the fail_ratio metric.
type tally struct {
	attempted, failed int64
	notes             []string
}

// check counts one operation and fails it when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.count(1, 0, "")
	if !ok {
		t.count(0, 1, format, args...)
	}
}

// count adds operations in bulk; the note is kept for the first few
// failures so a failing run says why.
func (t *tally) count(attempted, failed int64, format string, args ...any) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// outcome is one workload run's result: the oracle tally and every
// metric the run measured, by catalogue name.
type outcome struct {
	tally
	metrics map[string]float64
	samples map[string]int // samples behind a quantile metric
	spans   *spanRecorder  // traced runs: the last traced pass, for -trace-out
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// mix derives an independent seed from the run seed and an index, for
// the fleets' per-run seeds and the seeded environments.
func mix(seed int64, k int) int64 {
	return int64(netsim.Mix64(uint64(seed)+uint64(k)*0x9e3779b97f4a7c15) >> 1)
}
