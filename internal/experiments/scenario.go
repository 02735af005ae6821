// Package experiments contains the per-figure harnesses that
// regenerate the paper's evaluation: workload generators, parameter
// sweeps, baselines, and result tables. Each experiment is a pure
// function of its parameters, and of a seed if its paths draw
// randomness (loss, RED), so runs are reproducible.
// The mapping from figures/tables to functions is indexed in
// DESIGN.md; EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"time"

	"progmp/internal/core"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// Scenario is one connection's world: its engine and the connection
// dialed on it.
type Scenario struct {
	Eng  *netsim.Engine
	Conn *mptcp.Conn
}

// noDraws seeds the engine of an experiment whose paths draw no
// randomness (no loss, RED, jitter, reordering or duplication): its
// trajectory is the same at every seed, so the experiment takes none.
const noDraws = 0

// NewScenario builds a connection over the given paths with the named
// schedlib scheduler, loaded on the VM (a trajectory does not depend
// on the back-end).
func NewScenario(seed int64, cfg mptcp.Config, scheduler string, paths ...mptcp.SubflowSpec) (*Scenario, error) {
	src, ok := schedlib.All[scheduler]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scheduler %q", scheduler)
	}
	sched, err := core.Load(scheduler, src, core.BackendVM)
	if err != nil {
		return nil, err
	}
	return NewScenarioWith(seed, cfg, sched, paths...)
}

// NewScenarioWith builds a scenario around an already-loaded scheduler
// (any mptcp.Scheduler, including native ones).
func NewScenarioWith(seed int64, cfg mptcp.Config, sched mptcp.Scheduler, paths ...mptcp.SubflowSpec) (*Scenario, error) {
	eng := netsim.NewEngine(seed)
	conn, err := mptcp.Dial(eng, cfg, paths...)
	if err != nil {
		return nil, err
	}
	conn.SetScheduler(sched)
	return &Scenario{Eng: eng, Conn: conn}, nil
}

// WiFi returns the canonical WiFi path of the motivation setup
// (Fig. 1): ~3 MB/s fluctuating capacity, 5 ms one-way (≈10 ms RTT).
func WiFi() mptcp.SubflowSpec {
	return mptcp.SubflowSpec{Path: netsim.PathConfig{
		Name:  "wifi",
		Rate:  netsim.FluctuatingRate(3e6, 0.7e6, 2*time.Second, 1.2e6),
		Delay: 5 * time.Millisecond,
	}}
}

// LTE returns the canonical LTE path: 8 MB/s, 20 ms one-way
// (≈40 ms RTT). The backup flag marks it non-preferred (metered).
func LTE(backup bool) mptcp.SubflowSpec {
	return mptcp.SubflowSpec{Path: netsim.PathConfig{
		Name:  "lte",
		Rate:  netsim.ConstantRate(8e6),
		Delay: 20 * time.Millisecond,
	}, Backup: backup}
}

// flowWarmup lets both handshakes complete before a short flow starts,
// so flows actually see a multipath connection (as in the paper's
// testbeds, where connections exist before the measured flows).
const flowWarmup = 500 * time.Millisecond

// runFlow sends size bytes after the warm-up and returns the flow
// completion time (receiver side, last byte in order, relative to the
// send time) and the total bytes put on the wire (for overhead
// accounting). signalFlowEnd sets the Compensating-family end-of-flow
// register once the data is enqueued. A zero FCT means the flow did
// not complete within maxTime.
func runFlow(s *Scenario, size int, signalFlowEnd bool, maxTime time.Duration) (fct time.Duration, wireBytes int64) {
	var done time.Duration
	received := int64(0)
	s.Conn.Receiver().OnDeliver(func(_ int64, sz int, at time.Duration) {
		received += int64(sz)
		if received >= int64(size) && done == 0 {
			done = at - flowWarmup
		}
	})
	var wireBase int64
	s.Eng.At(flowWarmup, func() {
		for _, sbf := range s.Conn.Subflows() {
			wireBase += sbf.BytesSent
		}
		s.Conn.Send(size, 0)
		if signalFlowEnd {
			s.Conn.SetRegister(schedlib.RegFlowEnd, 1)
		}
	})
	s.Eng.RunUntil(flowWarmup + maxTime)
	for _, sbf := range s.Conn.Subflows() {
		wireBytes += sbf.BytesSent
	}
	wireBytes -= wireBase
	return done, wireBytes
}
