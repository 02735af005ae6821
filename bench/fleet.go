package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"progmp"
	"progmp/internal/fleet"
	"progmp/internal/mptcp"
	"progmp/internal/obs"
	"progmp/internal/runtime"
	"progmp/internal/xstate"
)

// fleetSpec describes a fleet workload: many connections, each a closed
// loop (burst of about 16 KiB → final ACK → about 100 ms think), driven by fleet.Run
// on one shard. fleet_churn and fleet_shared are two values of it.
type fleetSpec struct {
	name       string
	conns      int
	scheduler  string
	shared     bool // attach a fresh xstate store to every run
	destGroups int
	virtual    time.Duration
	seeds      int // derived seeds, one fleet.Run (= one slice) each
}

func fleetChurn(sz sizes) fleetSpec {
	return fleetSpec{name: "fleet_churn", conns: sz.churnConns, scheduler: "minRTT",
		virtual: sz.fleetVirtual, seeds: sz.fleetSeeds}
}

func fleetShared(sz sizes) fleetSpec {
	return fleetSpec{name: "fleet_shared", conns: sz.sharedConns, scheduler: "jointFlow",
		shared: true, destGroups: 32, virtual: sz.fleetVirtual, seeds: sz.fleetSeeds}
}

// fleetPass is one fleet.Run seen from outside.
type fleetPass struct {
	res      fleet.Result
	totalNS  int64 // wall around fleet.Run: construction + Result.Wall
	segments int64
	mallocs  uint64
	epochs   uint64 // shared-store epochs published during the run
}

// slicingScheduler cuts a fleet.Run into slices from outside. fleet.Run
// is one call, and what disturbs a shared machine lasts longer than a
// slice that coarse; but the fleet is deterministic and one shard runs
// it on one goroutine, so the n-th scheduler execution is the same
// event in every repetition, and the wall time between every
// sliceExecs-th execution times the same work. The cost in the timed
// path is a countdown per execution and a clock read per slice.
type slicingScheduler struct {
	inner mptcp.Scheduler
	left  int
	execs int64
	marks []int64 // wall ns since epoch at executions 0, sliceExecs, 2·sliceExecs, ...
	epoch time.Time
}

const sliceExecs = 4096

func (s *slicingScheduler) Exec(env *runtime.Env) {
	if s.left == 0 {
		s.marks = append(s.marks, int64(time.Since(s.epoch)))
		s.left = sliceExecs
	}
	s.left--
	s.execs++
	s.inner.Exec(env)
}

// slices turns the marks into a repetition: one slice per sliceExecs
// executions, and a last one holding what the run's clock covered
// outside the marks — the wheel's start-up before the first execution
// and everything after the last mark.
func (s *slicingScheduler) slices(wall time.Duration) repetition {
	var rep repetition
	for i := 1; i < len(s.marks); i++ {
		rep.add(s.marks[i]-s.marks[i-1], sliceExecs)
	}
	covered := int64(0)
	if n := len(s.marks); n > 0 {
		covered = s.marks[n-1] - s.marks[0]
	}
	rep.add(int64(wall)-covered, s.execs-int64(len(rep.ns))*sliceExecs)
	return rep
}

// run makes one fleet.Run with the k-th derived seed. agg, when
// non-nil, collects the shard registries; wrap, when non-nil, is put
// around the scheduler (the traced pass's core.exec boundary).
func (sp *fleetSpec) run(seed int64, k, shards int, conserve bool, agg *obs.Aggregator, wrap func(mptcp.Scheduler) mptcp.Scheduler) (*fleetPass, error) {
	// The derived seed draws the closed loop's two parameters around
	// their nominal values (16 KiB ± half a segment, so a burst is eleven
	// or twelve segments; 100 ms ± 5 ms) as well
	// as every connection's private seed: the fleet's paths are
	// loss-free, so without this no seed would change a trajectory.
	derived := mix(seed, k)
	rng := rand.New(rand.NewSource(derived))
	cfg := fleet.Config{
		Conns:        sp.conns,
		Shards:       shards,
		Seed:         derived,
		Duration:     sp.virtual,
		SendBytes:    16<<10 - mss/2 + rng.Intn(mss+1),
		Think:        95*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond))),
		DestGroups:   sp.destGroups,
		Program:      sp.scheduler,
		Agg:          agg,
		Conservation: conserve,
		NewScheduler: func() (mptcp.Scheduler, error) {
			s, err := progmp.LoadSchedulerBackend(sp.scheduler, progmp.Schedulers[sp.scheduler], progmp.BackendVM)
			if err != nil {
				return nil, err
			}
			s.SetSynchronousSpecialization(true)
			if wrap != nil {
				return wrap(s), nil
			}
			return s, nil
		},
	}
	if sp.shared {
		cfg.Store = xstate.NewStore()
	}
	goruntime.GC()
	mallocs0 := mallocCount()
	start := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	p := &fleetPass{res: res, totalNS: int64(time.Since(start)), mallocs: mallocCount() - mallocs0}
	for _, c := range res.PerConn {
		p.segments += c.Segments
	}
	if cfg.Store != nil {
		p.epochs = cfg.Store.Epoch()
	}
	return p, nil
}

// differingConns counts the connections whose end-of-run accounting
// differs between two runs of the same fleet: per-connection
// trajectories depend only on (seed, index), never on the shard count
// or on which repetition ran them.
func differingConns(a, b []fleet.ConnSummary) int64 {
	if len(a) != len(b) {
		return int64(len(a) + len(b))
	}
	var n int64
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// runFleet is the workload. Per derived seed: a two-shard pass with
// conservation checking on (the oracle, and the other end of the
// 1-vs-2-shard comparison), then one-shard passes until the budget is
// spent. A repetition's slices are every 4096 scheduler executions of
// each fleet.Run's Result.Wall; what fleet.Run spends outside
// Result.Wall (loading the scheduler, building the worlds) is set-up.
func runFleet(sp fleetSpec, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	agg := obs.NewAggregator()
	verify := make([]*fleetPass, sp.seeds)
	for k := range verify {
		p, err := sp.run(cfg.seed, k, 2, true, agg, nil)
		if err != nil {
			return nil, err
		}
		verify[k] = p
		// One operation per connection and seed: it fails when the
		// connection loses, duplicates or reorders a byte.
		out.count(int64(sp.conns), int64(len(p.res.ConservationViolations)),
			"%s derived seed %d: %v", sp.name, k, p.res.ConservationViolations)
	}

	var reps []repetition
	var first []*fleetPass // repetition 0: the counts that repeat anyway
	var setups []float64
	marks := 0 // marks the last run made: the next one's capacity
	_, err := repeat(cfg.budget, cfg.size.minReps, func(r int) error {
		var rep repetition
		passes := make([]*fleetPass, sp.seeds)
		for k := range passes {
			slicer := &slicingScheduler{marks: make([]int64, 0, marks)}
			p, err := sp.run(cfg.seed, k, 1, false, nil, func(s mptcp.Scheduler) mptcp.Scheduler {
				slicer.inner, slicer.epoch = s, time.Now()
				return slicer
			})
			if err != nil {
				return err
			}
			passes[k] = p
			marks = len(slicer.marks)
			ran := slicer.slices(p.res.Wall)
			rep.ns, rep.work = append(rep.ns, ran.ns...), append(rep.work, ran.work...)
			setups = append(setups, float64(p.totalNS-int64(p.res.Wall))/1e9)
			// And one per connection, seed and repetition: one shard
			// must reproduce what two shards did.
			out.count(int64(sp.conns), differingConns(p.res.PerConn, verify[k].res.PerConn),
				"%s seed %d repetition %d: per-connection results differ from the two-shard run", sp.name, k, r)
		}
		reps = append(reps, rep)
		if r == 0 {
			first = passes
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	timedNS, _, err := quietTime(reps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}

	wall := float64(timedNS) / 1e9
	var segments, bytesPerConn int64
	var mallocs uint64
	for _, p := range first {
		segments += p.segments
		mallocs += p.mallocs
		bytesPerConn += p.res.BytesPerConn
	}
	// The two-shard passes fed one aggregator, so the last one's
	// quantiles are over every seed's deliveries.
	merged := verify[sp.seeds-1].res
	out.set("setup_s", median(setups))
	out.set("seg_per_s", float64(segments)/wall)
	out.set("conn_virt_s_per_s", float64(sp.conns*sp.seeds)*sp.virtual.Seconds()/wall)
	out.set("delivery_p50_us", float64(merged.DeliveryP50US))
	out.set("delivery_p99_us", float64(merged.DeliveryP99US))
	out.samples["delivery_p50_us"] = int(segments)
	out.samples["delivery_p99_us"] = int(segments / 100)
	out.set("allocs_per_seg", float64(mallocs)/float64(segments))
	out.set("bytes_per_conn", float64(bytesPerConn)/float64(sp.seeds))
	out.set("fail_ratio", float64(out.failed)/float64(out.attempted))
	if !cfg.traced {
		return out, nil
	}

	// Ratios against passes that cannot be sliced (traced, two shards)
	// use the best whole repetition, so like is compared with like.
	var wholeNS int64
	for _, rep := range reps {
		var ns int64
		for _, t := range rep.ns {
			ns += t
		}
		if wholeNS == 0 || ns < wholeNS {
			wholeNS = ns
		}
	}
	if err := sp.trace(cfg, out, first, wholeNS); err != nil {
		return nil, err
	}
	countSubstrate(agg.Aggregate().Counters).report(out, segments)
	out.set("mptcp.sched_exec_p50_ns", float64(merged.DecisionP50NS))
	out.set("mptcp.sched_exec_p99_ns", float64(merged.DecisionP99NS))
	var epochs uint64
	var twoShardNS int64
	for _, p := range verify {
		epochs += p.epochs
		twoShardNS += int64(p.res.Wall)
	}
	out.set("xstate.epochs_per_conn_s", float64(epochs)/(float64(sp.conns*sp.seeds)*sp.virtual.Seconds()))
	// Two shards (with the conservation hooks on) against one on the
	// same fleet; informational on a box whose two cores are shared.
	out.set("fleet.scale2", float64(wholeNS)/float64(twoShardNS))
	return out, nil
}

// trace makes the traced passes: the scheduler wrapped in the core.exec
// boundary, one fleet.run span per run. fleet.Run builds and drives its
// connections itself, so writes and deliveries are not visible from
// outside and the substrate share holds them.
func (sp *fleetSpec) trace(cfg runConfig, out *outcome, first []*fleetPass, wholeNS int64) error {
	var rec *spanRecorder
	var tracedNS int64
	for r := 0; r < cfg.size.minReps; r++ {
		var ns int64
		for k := 0; k < sp.seeds; k++ {
			rec = newSpanRecorder(8*int(first[k].segments) + 16)
			root := rec.begin(spanWorkload)
			run := rec.begin(spanFleetRun)
			p, err := sp.run(cfg.seed, k, 1, false, nil, func(s mptcp.Scheduler) mptcp.Scheduler {
				return &tracedScheduler{inner: s, rec: rec}
			})
			rec.end(run)
			rec.end(root)
			if err != nil {
				return err
			}
			if rec.dropped > 0 {
				return fmt.Errorf("%s: span recorder dropped %d spans", sp.name, rec.dropped)
			}
			// The fleet.run span covers construction too; keep only the
			// part fleet.Run itself timed.
			rec.spans[run].start += rec.spans[run].dur - int64(p.res.Wall)
			rec.spans[run].dur = int64(p.res.Wall)
			ns += int64(p.res.Wall)
		}
		if tracedNS == 0 || ns < tracedNS {
			tracedNS = ns
		}
	}
	out.spans = rec
	sh := rec.shares()
	out.set("trace.exec_share", sh.exec)
	out.set("trace.substrate_share", sh.substrate)
	out.set("trace.overhead_ratio", float64(tracedNS)/float64(wholeNS))
	return nil
}
