package main

import (
	"fmt"
	"time"

	"progmp"
	"progmp/internal/fleet"
	"progmp/internal/mptcp"
	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/xstate"
)

// Layer probes: each times one layer's public functions from outside,
// in isolation, with the same estimator as the workloads. They do not
// depend on the workload being run; a traced run repeats them so that
// its per-layer ledger is complete on its own.

// probe is one layer measurement. setup builds the state a repetition
// needs (untimed), sized by n, and returns the slice function; a slice
// reports the wall time it measured and the operations that time
// covers, so a probe can keep work it only needs for bookkeeping
// (draining events it scheduled) off the clock.
type probe struct {
	metric string
	setup  func(n int) (slice func() (ns, ops int64, err error), err error)
	// scale converts ns per operation into the metric's unit (0 means 1).
	scale float64
}

// timed runs fn, which performs ops operations, on the clock.
func timed(ops int, fn func()) (int64, int64, error) {
	t0 := time.Now()
	fn()
	return int64(time.Since(t0)), int64(ops), nil
}

// probeSlices is the number of slices per repetition of a probe.
const probeSlices = 8

// nopScheduler decides nothing: what remains of a scheduling pass is
// the substrate's snapshot build and its empty action application.
type nopScheduler struct{}

func (nopScheduler) Exec(*runtime.Env) {}

// arenaSource materializes synthetic packets for the runtime probes.
type arenaSource struct{}

func (arenaSource) MaterializePacket(i int, v *runtime.PacketView) {
	*v = runtime.PacketView{Handle: runtime.PacketHandle(i)}
	v.Ints[runtime.PktSeq] = int64(i)
	v.Ints[runtime.PktSize] = mss
}

// stalledConn returns a connection whose congestion windows are full
// and whose ACKs are withheld (the engine is not run after the write),
// with queued segments behind them: every Kick then runs one snapshot
// build, one execution and one empty apply, and transmits nothing.
func stalledConn(queued int, s mptcp.Scheduler) (*mptcp.Conn, error) {
	net := progmp.NewNetwork(1)
	conn, err := net.Dial(progmp.ConnConfig{}, twoPaths()...)
	if err != nil {
		return nil, err
	}
	fill, err := progmp.LoadScheduler("minRTT", progmp.Schedulers["minRTT"])
	if err != nil {
		return nil, err
	}
	fill.SetSynchronousSpecialization(true)
	conn.SetScheduler(fill)
	net.Run(100 * time.Millisecond) // handshakes
	conn.Send(queued * mss)         // fills both windows, queues the rest
	if s != nil {
		conn.Inner().SetScheduler(s)
	}
	return conn.Inner(), nil
}

// loopProbe is the common shape: build state once per repetition, then
// time n calls of op per slice.
func loopProbe(metric string, build func() (op func(i int), err error)) probe {
	return probe{metric: metric, setup: func(n int) (func() (int64, int64, error), error) {
		op, err := build()
		if err != nil {
			return nil, err
		}
		return func() (int64, int64, error) {
			return timed(n, func() {
				for i := 0; i < n; i++ {
					op(i)
				}
			})
		}, nil
	}}
}

// kickProbe times Conn.Kick on a stalled connection with queued
// segments behind its full windows, under scheduler s (nil keeps the
// VM minRTT that filled the windows).
func kickProbe(metric string, queued int, s mptcp.Scheduler) probe {
	return loopProbe(metric, func() (func(int), error) {
		conn, err := stalledConn(queued, s)
		if err != nil {
			return nil, err
		}
		return func(int) { conn.Kick() }, nil
	})
}

// recordRTTProbe times one RecordRTT — one epoch publish — on a store
// tracking dests destinations: the publish clones the destination
// table, so its cost grows with the fleet's destination count.
func recordRTTProbe(metric string, dests int) probe {
	return loopProbe(metric, func() (func(int), error) {
		store := xstate.NewStore()
		for d := 0; d < dests; d++ {
			store.DestID(fmt.Sprintf("dest%d", d))
		}
		return func(i int) { store.RecordRTT(i%dests, int64(10000+i)) }, nil
	})
}

var sink int64 // keeps probe results alive

// probeFleet is a one-shard fleet for the fleet probes; its no-op
// scheduler keeps the back-ends out of the picture.
func probeFleet(conns int, virtual, think time.Duration) fleet.Config {
	return fleet.Config{
		Conns: conns, Shards: 1, Seed: 1, Duration: virtual, Think: think,
		NewScheduler: func() (mptcp.Scheduler, error) { return nopScheduler{}, nil },
	}
}

var probes = []probe{
	// One snapshot bind as Conn.buildEnv does it: subflow views, the
	// three queues, the per-execution reset.
	loopProbe("runtime.bind_ns", func() (func(int), error) {
		arena := runtime.NewArena(nil)
		return func(int) {
			arena.BindSubflows(2)
			arena.BindQueue(runtime.QueueSend, arenaSource{}, 16, false)
			arena.BindQueue(runtime.QueueUnacked, arenaSource{}, 16, false)
			arena.BindQueue(runtime.QueueReinject, arenaSource{}, 0, false)
			arena.BeginExec()
		}, nil
	}),
	// Queue.At on a cold view: the lazy materialization a scheduler
	// pays for every packet it looks at. The rebind that makes the
	// views cold again is one call per 64 reads.
	loopProbe("runtime.materialize_ns", func() (func(int), error) {
		const depth = 64
		arena := runtime.NewArena(nil)
		q := arena.Env().SendQ
		return func(i int) {
			if i%depth == 0 {
				arena.BindQueue(runtime.QueueSend, arenaSource{}, depth, false)
			}
			sink += q.At(i % depth).Ints[runtime.PktSeq]
		}, nil
	}),
	kickProbe("mptcp.kick_nop_ns", 64, nopScheduler{}),
	kickProbe("mptcp.kick_ns", 64, nil),
	kickProbe("mptcp.kick_deepq_ns", 46000, nopScheduler{}),
	// Conn.Send under a scheduler that never pushes: segmentation and
	// enqueue alone.
	{metric: "mptcp.send_ns_per_seg", setup: func(n int) (func() (int64, int64, error), error) {
		conn, err := stalledConn(0, nopScheduler{})
		if err != nil {
			return nil, err
		}
		return func() (int64, int64, error) {
			return timed(n, func() { conn.Send(n*mss, 0) })
		}, nil
	}},
	// Engine.At + Step with a thousand events pending: a heap depth the
	// fleet's per-connection engines never reach and a shared Network
	// does.
	loopProbe("netsim.event_ns", func() (func(int), error) {
		eng := netsim.NewEngine(1)
		nop := func() {}
		at := time.Duration(0)
		for i := 0; i < 1000; i++ {
			at += time.Microsecond
			eng.At(at, nop)
		}
		return func(int) {
			at += time.Microsecond
			eng.At(at, nop)
			eng.Step()
		}, nil
	}),
	// Path.SendTracked: serialization, the loss draw and the two events
	// it schedules; firing them is drained off the clock.
	{metric: "netsim.path_send_ns", setup: func(n int) (func() (int64, int64, error), error) {
		eng := netsim.NewEngine(1)
		path := netsim.NewPath(eng, netsim.PathConfig{
			Name: "probe", Rate: netsim.ConstantRate(1e9), Delay: time.Millisecond,
			Loss: netsim.BernoulliLoss{P: 0.01}, QueueBytes: 1 << 30,
		})
		nop := func() {}
		return func() (int64, int64, error) {
			defer eng.Run()
			return timed(n, func() {
				for i := 0; i < n; i++ {
					path.SendTracked(mss, nop, nop)
				}
			})
		}, nil
	}},
	// What fleet.Run spends per connection before its clock starts:
	// the part of a fleet's set-up that grows with the fleet.
	{metric: "fleet.build_us_per_conn", scale: 1e-3, setup: func(n int) (func() (int64, int64, error), error) {
		conns := n/10 + 1
		return func() (int64, int64, error) {
			t0 := time.Now()
			res, err := fleet.Run(probeFleet(conns, time.Nanosecond, 0))
			return int64(time.Since(t0) - res.Wall), int64(conns), err
		}, nil
	}},
	// A fleet whose connections never send (the think time puts every
	// first burst past the horizon): what a parked connection costs the
	// wheel per slice. One virtual second is 200 slices of 5 ms.
	{metric: "fleet.idle_conn_slice_ns", setup: func(n int) (func() (int64, int64, error), error) {
		conns := n/10 + 1
		return func() (int64, int64, error) {
			res, err := fleet.Run(probeFleet(conns, time.Second, 10000*time.Hour))
			return int64(res.Wall), int64(conns) * 200, err
		}, nil
	}},
	loopProbe("obs.counter_add_ns", func() (func(int), error) {
		c := obs.NewRegistry().Counter("conn.pushes")
		return func(int) { c.Add(1) }, nil
	}),
	loopProbe("obs.hist_observe_ns", func() (func(int), error) {
		h := obs.NewRegistry().Histogram("conn.sched_exec_ns")
		return func(i int) { h.Observe(int64(100 + i)) }, nil
	}),
	loopProbe("obs.tracer_record_ns", func() (func(int), error) {
		t := obs.NewTracer(0)
		return func(i int) { t.Record(obs.Event{At: time.Duration(i), Kind: obs.EvPush, Seq: int64(i)}) }, nil
	}),
	// Aggregator.Aggregate over eight instrumented connections: what one
	// scrape of a small fleet costs.
	{metric: "obs.aggregate_us", scale: 1e-3, setup: func(n int) (func() (int64, int64, error), error) {
		agg := obs.NewAggregator()
		net := progmp.NewNetwork(1)
		for i := 0; i < 8; i++ {
			conn, err := net.Dial(progmp.ConnConfig{}, twoPaths()...)
			if err != nil {
				return nil, err
			}
			reg := obs.NewRegistry()
			conn.Instrument(nil, reg)
			agg.Attach(obs.Labels{Conn: fmt.Sprintf("c%d", i)}, reg)
		}
		scrapes := n/100 + 1
		return func() (int64, int64, error) {
			return timed(scrapes, func() {
				for i := 0; i < scrapes; i++ {
					snap := agg.Aggregate()
					sink += int64(len(snap.Counters))
				}
			})
		}, nil
	}},
	// The scheduler hot path's view of the shared store.
	loopProbe("xstate.load_ns", func() (func(int), error) {
		store := xstate.NewStore()
		return func(int) { sink += int64(store.Load().Epoch) }, nil
	}),
	recordRTTProbe("xstate.record_rtt_ns.d1", 1),
	recordRTTProbe("xstate.record_rtt_ns.d64", 64),
	// One batched GSET publish, as applyActions does after an execution
	// that wrote a global.
	loopProbe("xstate.setglobals_ns", func() (func(int), error) {
		store := xstate.NewStore()
		var vals [runtime.NumGlobals]int64
		return func(i int) {
			vals[0] = int64(i)
			store.SetGlobals(1, &vals)
		}, nil
	}),
}

// runProbes measures every layer probe within the budget, split
// evenly, and sets their metrics on out.
func runProbes(cfg runConfig, out *outcome) error {
	each := cfg.budget / time.Duration(len(probes))
	for _, p := range probes {
		var reps []repetition
		_, err := repeat(each, cfg.size.minReps, func(int) error {
			slice, err := p.setup(cfg.size.probeOps)
			if err != nil {
				return err
			}
			var rep repetition
			for i := 0; i < probeSlices; i++ {
				ns, ops, err := slice()
				if err != nil {
					return err
				}
				rep.add(ns, ops)
			}
			reps = append(reps, rep)
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		ns, ops, err := quietTime(reps)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		scale := p.scale
		if scale == 0 {
			scale = 1
		}
		out.set(p.metric, float64(ns)/float64(ops)*scale)
	}
	return nil
}
