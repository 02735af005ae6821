package main

// This file is the one description of a simulated run: the Scenario
// value mpsim's flags fill in, the -path syntax, scheduler loading, the
// default wifi/lte pair, and the one way a scenario's connections are
// dialed into a network.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"progmp"
	"progmp/internal/core"
)

// Scenario describes a run: what is scheduled, over which paths, and
// the workload every connection carries.
type Scenario struct {
	Scheduler string        // built-in name or a source file
	Backend   string        // vm, compiled, interpreter
	Paths     []progmp.Path // empty selects DefaultPaths
	CC        string        // lia (default), olia, reno
	PathMgr   bool
	Guard     bool
	XState    bool
	Seed      int64
	Duration  time.Duration
	Send      int   // bytes per connection
	Prop      int64 // per-packet scheduling intent
	R1        int64
	Conns     int
}

// RegisterFlags binds the scenario's flags.
func (s *Scenario) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Scheduler, "scheduler", "minRTT", "built-in scheduler name or a file path")
	fs.StringVar(&s.Backend, "backend", "vm", "execution backend: interpreter, compiled, vm")
	fs.IntVar(&s.Send, "send", 1<<20, "bytes to transfer")
	fs.Int64Var(&s.Prop, "prop", 0, "per-packet scheduling intent")
	fs.Int64Var(&s.Seed, "seed", 1, "simulation seed")
	fs.DurationVar(&s.Duration, "duration", 60*time.Second, "simulation horizon")
	fs.Int64Var(&s.R1, "r1", 0, "initial value of register R1")
	fs.StringVar(&s.CC, "cc", "", "congestion control: lia (default), olia, reno")
	fs.BoolVar(&s.Guard, "guard", false, "supervise the scheduler (panic recovery, strikes on refused actions, degradation; GUARD_* transitions are traced)")
	fs.BoolVar(&s.PathMgr, "pathmgr", false, "enable the path manager (failure detection + backup promotion)")
	fs.IntVar(&s.Conns, "conns", 1, "number of connections (each with its own scheduler instance and metrics registry)")
	fs.BoolVar(&s.XState, "xstate", false, "attach every connection to one cross-connection shared-state store (globals G1..G8, per-destination path stats, gget/gset/deststats ctl verbs)")
	fs.Func("path", "path spec name:rateBps:delay:loss:pref|backup (repeatable)", func(v string) error {
		p, err := ParsePath(v)
		if err == nil {
			s.Paths = append(s.Paths, p)
		}
		return err
	})
}

// ParsePath parses "name:rateBps:delay:lossProb:pref|backup". Numbers
// must parse in full, and a path that could never carry a byte (no
// name, no capacity, a loss probability outside [0,1], a negative
// delay) is refused rather than simulated.
func ParsePath(v string) (progmp.Path, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 5 {
		return progmp.Path{}, fmt.Errorf("path %q: want name:rate:delay:loss:pref|backup", v)
	}
	rate, rateErr := strconv.ParseFloat(parts[1], 64)
	delay, delayErr := time.ParseDuration(parts[2])
	loss, lossErr := strconv.ParseFloat(parts[3], 64)
	var bad string
	switch {
	case parts[0] == "":
		bad = "empty name"
	case rateErr != nil || !(rate > 0) || math.IsInf(rate, 0):
		bad = "rate must be a positive number of bytes/s"
	case delayErr != nil || delay < 0:
		bad = "delay must be a non-negative duration such as 5ms"
	case lossErr != nil || !(loss >= 0 && loss <= 1):
		bad = "loss must be a probability in [0,1]"
	case parts[4] != "pref" && parts[4] != "backup":
		bad = "last field must be pref or backup"
	}
	if bad != "" {
		return progmp.Path{}, fmt.Errorf("path %q: %s", v, bad)
	}
	return progmp.Path{
		Name: parts[0], RateBps: rate, OneWayDelay: delay, LossProb: loss, Backup: parts[4] == "backup",
	}, nil
}

// DefaultPaths is the motivation setup (Fig. 1) every run without
// -path uses: preferred WiFi, faster but metered LTE as backup.
func DefaultPaths() []progmp.Path {
	return []progmp.Path{
		{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
		{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, Backup: true},
	}
}

// LoadScheduler resolves a built-in name or a source file and compiles
// it on the named back-end.
func LoadScheduler(scheduler, backend string) (*progmp.Scheduler, error) {
	src, ok := progmp.Schedulers[scheduler]
	if !ok {
		data, err := os.ReadFile(scheduler)
		if err != nil {
			return nil, fmt.Errorf("scheduler %q is neither built-in nor readable: %w", scheduler, err)
		}
		src = string(data)
	}
	be, err := core.ParseBackend(backend)
	if err != nil {
		return nil, err
	}
	return progmp.LoadSchedulerBackend(scheduler, src, be)
}

// World is what the connections of one run share: the network, the
// shared-state store (nil without XState) and the fleet quarantine tier
// (nil without Guard).
type World struct {
	Net   *progmp.Network
	Store *progmp.SharedStore
	Fleet *progmp.Fleet
}

// NewWorld creates the scenario's seeded network and shared tiers.
func (s *Scenario) NewWorld() *World {
	w := &World{Net: progmp.NewNetwork(s.Seed)}
	if s.XState {
		w.Store = progmp.NewSharedStore()
	}
	if s.Guard {
		w.Fleet = w.Net.NewFleet()
	}
	return w
}

// Dial adds one connection of the scenario to the world: its subflows,
// a fresh scheduler instance (supervised and fleet-enrolled under
// Guard), the instruments (either may be nil), the path manager and
// R1 — in that order, so R1's first scheduler execution is traced.
func (s *Scenario) Dial(w *World, t *progmp.Tracer, m *progmp.Metrics) (*progmp.Conn, error) {
	sched, err := LoadScheduler(s.Scheduler, s.Backend)
	if err != nil {
		return nil, err
	}
	paths := s.Paths
	if len(paths) == 0 {
		paths = DefaultPaths()
	}
	conn, err := w.Net.Dial(progmp.ConnConfig{CongestionControl: s.CC, Store: w.Store}, paths...)
	if err != nil {
		return nil, err
	}
	if s.Guard {
		conn.Supervise(sched)
		if err := conn.JoinFleet(w.Fleet, s.Scheduler); err != nil {
			return nil, err
		}
	} else {
		conn.SetScheduler(sched)
	}
	conn.Instrument(t, m)
	if s.PathMgr {
		conn.EnablePathManager()
	}
	if s.R1 != 0 {
		conn.SetRegister(progmp.R1, s.R1)
	}
	return conn, nil
}
