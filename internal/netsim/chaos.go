package netsim

import "time"

// This file is the link-level half of the chaos fault-injection
// harness: composable injectors — scheduled link flaps, bursty loss,
// duplication, reordering, blackouts — that turn a clean PathConfig
// into a hostile one. Everything draws randomness from the engine's
// seeded RNG, so a chaos run is exactly reproducible from its seed.
// The connection-level half (scenario drivers, the conservation
// checker) lives in package mptcp, which owns the MPTCP model.

// Flap is a scheduled down/up cycle: the link dies (rate 0, tail drop)
// for DownFor, recovers for UpFor, and repeats. The first outage starts
// at FirstDownAt.
type Flap struct {
	FirstDownAt time.Duration
	DownFor     time.Duration
	UpFor       time.Duration
}

// down reports whether the link is inside an outage window at the
// given virtual time.
func (f Flap) down(at time.Duration) bool {
	if f.DownFor <= 0 || at < f.FirstDownAt {
		return false
	}
	cycle := f.DownFor + f.UpFor
	if cycle <= 0 {
		return true // DownFor > 0, UpFor <= 0: down forever
	}
	return (at-f.FirstDownAt)%cycle < f.DownFor
}

// FlapRate wraps a rate function with the flap schedule: during an
// outage the rate is 0 (the Path treats non-positive rates as a dead
// link and tail-drops).
func FlapRate(inner RateFunc, f Flap) RateFunc {
	return func(at time.Duration) float64 {
		if f.down(at) {
			return 0
		}
		return inner(at)
	}
}
