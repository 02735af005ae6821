package experiments

import (
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/netsim"
)

// AblationResult compares one design choice of the calling model on
// and off: the flow completion time and scheduler executions of the
// same 128 KiB two-path transfer.
type AblationResult struct {
	Choice                  string
	With, Without           time.Duration
	WithExecs, WithoutExecs int64
}

// Ablations switches off, one at a time, the two triggers that keep
// the scheduler running between ACKs: compressed executions (§4.1:
// up to 4096 executions per trigger against one) and the TSQ-drain
// trigger (Fig. 4: against purely ACK-clocked scheduling). minRTT
// sends 128 KiB at time 0 over two 3 MB/s paths of 5 ms and 20 ms one
// way.
func Ablations() ([]AblationResult, error) {
	choices := []struct {
		name    string
		without mptcp.Config
	}{
		{"compressed executions", mptcp.Config{MaxSchedIterations: 1}},
		{"TSQ-drain trigger", mptcp.Config{DisableTSQWake: true}},
	}
	with, withExecs, err := ablationTransfer(mptcp.Config{})
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, c := range choices {
		without, withoutExecs, err := ablationTransfer(c.without)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{c.name, with, without, withExecs, withoutExecs})
	}
	return out, nil
}

// ablationTransfer runs the ablation transfer under cfg and returns
// its flow completion time and scheduler executions.
func ablationTransfer(cfg mptcp.Config) (time.Duration, int64, error) {
	s, err := NewScenario(noDraws, cfg, "minRTT",
		mptcp.SubflowSpec{Path: netsim.PathConfig{Name: "p0", Rate: netsim.ConstantRate(3e6), Delay: 5 * time.Millisecond}},
		mptcp.SubflowSpec{Path: netsim.PathConfig{Name: "p1", Rate: netsim.ConstantRate(3e6), Delay: 20 * time.Millisecond}},
	)
	if err != nil {
		return 0, 0, err
	}
	const total = 128 << 10
	var fct time.Duration
	var delivered int64
	s.Conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		delivered += int64(size)
		if delivered >= total && fct == 0 {
			fct = at
		}
	})
	s.Eng.At(0, func() { s.Conn.Send(total, 0) })
	s.Eng.RunUntil(20 * time.Second)
	return fct, s.Conn.SchedulerExecutions, nil
}
