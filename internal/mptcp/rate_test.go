package mptcp

import (
	"math/rand"
	"testing"
	"time"

	"progmp/internal/netsim"
)

// naiveRate is the delivery-rate estimator as it was before the running
// sum: keep every sample, drop the expired prefix, re-sum on each read.
// It stays as the reference TestThroughputMatchesNaiveSum compares with.
type naiveRate struct{ samples []rateSample }

func (r *naiveRate) prune(now time.Duration) {
	cut := 0
	for cut < len(r.samples) && r.samples[cut].at < now-rateWindow {
		cut++
	}
	r.samples = r.samples[cut:]
}

func (r *naiveRate) record(now time.Duration, bytes int) {
	r.samples = append(r.samples, rateSample{at: now, bytes: bytes})
	r.prune(now)
}

func (r *naiveRate) throughput(now time.Duration) int64 {
	r.prune(now)
	var total int
	for _, smp := range r.samples {
		total += smp.bytes
	}
	return int64(float64(total) / rateWindow.Seconds())
}

// TestThroughputMatchesNaiveSum drives recordDelivered/Throughput with
// random (advance-clock, bytes) sequences — dense bursts that force the
// ring to grow and wrap, gaps longer than the window that empty it,
// samples exactly on the window edge, and reads with no intervening
// sample — and requires the same integer as the re-sum on every read.
func TestThroughputMatchesNaiveSum(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := netsim.NewEngine(seed)
		s := &Subflow{conn: NewConn(eng, Config{}), destID: -1}
		ref := &naiveRate{}
		if got := s.Throughput(); got != 0 {
			t.Fatalf("seed %d: Throughput before any sample = %d, want 0", seed, got)
		}
		now := time.Duration(0)
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(100); {
			case r < 55: // dense arrivals
				now += time.Duration(rng.Intn(400)) * time.Microsecond
			case r < 85:
				now += time.Duration(rng.Intn(30)) * time.Millisecond
			case r < 90: // lands exactly on the window edge of an earlier sample
				now += rateWindow
			case r < 95: // a silence longer than the window
				now += rateWindow + time.Duration(rng.Intn(int(2*rateWindow)))
			}
			eng.RunUntil(now)
			if rng.Intn(4) != 0 {
				bytes := 1 + rng.Intn(1460)
				s.recordDelivered(bytes)
				ref.record(now, bytes)
			}
			for reads := rng.Intn(3); reads > 0; reads-- {
				if got, want := s.Throughput(), ref.throughput(now); got != want {
					t.Fatalf("seed %d step %d at %v: Throughput = %d, re-sum = %d", seed, step, now, got, want)
				}
			}
			if s.rate.samples.len() != len(ref.samples) {
				t.Fatalf("seed %d step %d: ring holds %d samples, reference %d", seed, step, s.rate.samples.len(), len(ref.samples))
			}
		}
	}
}
