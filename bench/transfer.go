package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"progmp"
	"progmp/internal/mptcp"
)

// transferSpec describes one single-connection simulation workload:
// stream_shallowq, bulk_deepq and redundant_4path are three values of
// it. A stream is an open loop in virtual time — the application
// writes chunk bytes every period whether or not earlier chunks have
// left, and each delivery is timed from its chunk's due time; virtual
// time cannot run late, so the generator never does either. A bulk
// transfer is one write at t=0 run to its final ACK.
type transferSpec struct {
	name      string
	paths     []progmp.Path
	scheduler string // key into progmp.Schedulers, loaded on the VM

	chunk   int           // stream: mean bytes per write (0 selects bulk)
	period  time.Duration // stream: time between writes
	virtual time.Duration // stream: measured virtual time
	warmup  time.Duration // stream: virtual time before measuring
	bulk    int           // bulk: bytes of the one write

	slice time.Duration // virtual time per timed slice of Network.Run
}

const mss = 1460 // the substrate's default segment size

// maxDrain bounds the virtual time a transfer may take beyond its last
// write before the run gives up on it.
const maxDrain = 120 * time.Second

func twoPaths() []progmp.Path {
	return []progmp.Path{
		{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
		{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, LossProb: 0.01},
	}
}

func fourPaths() []progmp.Path {
	return append(twoPaths(),
		progmp.Path{Name: "eth", RateBps: 5e6, OneWayDelay: 12 * time.Millisecond},
		progmp.Path{Name: "sat", RateBps: 2e6, OneWayDelay: 30 * time.Millisecond, LossProb: 0.01},
	)
}

func streamShallowQ(sz sizes) transferSpec {
	return transferSpec{
		name: "stream_shallowq", paths: twoPaths(), scheduler: "minRTT",
		chunk: 25000, period: 10 * time.Millisecond, virtual: sz.streamVirtual, warmup: sz.warmup,
		slice: 50 * time.Millisecond,
	}
}

func bulkDeepQ(sz sizes) transferSpec {
	return transferSpec{
		name: "bulk_deepq", paths: twoPaths(), scheduler: "minRTT",
		bulk: sz.bulkBytes, slice: 100 * time.Millisecond,
	}
}

func redundant4Path(sz sizes) transferSpec {
	return transferSpec{
		name: "redundant_4path", paths: fourPaths(), scheduler: "redundant",
		chunk: 25000, period: 10 * time.Millisecond, virtual: sz.redundantVirtual, warmup: sz.warmup,
		slice: 50 * time.Millisecond,
	}
}

// passMode selects what a pass over the transfer carries besides the
// transfer itself.
type passMode int

const (
	passTimed        passMode = iota // nothing extra: the end-to-end numbers
	passVerify                       // conservation checker, heap and malloc accounting; untimed
	passTraced                       // benchmark-side spans
	passInstrumented                 // Conn.Instrument(tracer, registry) on
)

// transferPass is what one pass over the transfer reports.
type transferPass struct {
	setupNS int64      // wall: scheduler load, dial, warm-up
	slices  repetition // wall and delivered segments per timed slice

	segments  int64  // segments delivered in order in the timed region
	virtualNS int64  // virtual time the timed region covered
	fctNS     int64  // virtual time from the first measured write to the final ACK
	digest    uint64 // hash of every (seq, delivery time): the trajectory

	execs int64 // scheduler executions in the timed region

	// passVerify only.
	mallocs    uint64
	heapBytes  int64
	violations []string
	enqueued   int64 // segments the application wrote over the whole pass
	delivered  int64 // segments the checker saw in order over the whole pass
	allAcked   bool

	// passInstrumented only: registry counters over the timed region and
	// the conn.sched_exec_ns quantiles.
	counted              substrateCounts
	execP50NS, execP99NS int64
}

// run makes one pass. lat receives the delivery latency (virtual ns
// from the due time of a segment's chunk to its in-order delivery) of
// every measured segment; it is passed in so repetitions reuse one
// buffer, and returned re-sliced.
func (sp *transferSpec) run(seed int64, mode passMode, lat []int64, rec *spanRecorder) (*transferPass, []int64, error) {
	p := &transferPass{}
	lat = lat[:0]
	goruntime.GC() // every pass starts from a collected heap, outside the timers

	setupStart := time.Now()
	sched, err := progmp.LoadSchedulerBackend(sp.scheduler, progmp.Schedulers[sp.scheduler], progmp.BackendVM)
	if err != nil {
		return nil, lat, err
	}
	// Specialize inline: the background compile is a second goroutine
	// whose landing time would make repetitions differ.
	sched.SetSynchronousSpecialization(true)

	// Stream bookkeeping: the seed draws every write's size (uniform in
	// chunk ± 50 %, so the offered rate averages chunk/period), and
	// chunkSeq[k] is the first segment of write k, which maps a delivered
	// segment back to the write it belongs to and so to its due time.
	var writes []int
	var chunkSeq []int64
	firstSeq, cur := int64(0), 0
	if sp.chunk > 0 {
		rng := rand.New(rand.NewSource(seed))
		n := int((sp.warmup + sp.virtual) / sp.period)
		writes, chunkSeq = make([]int, n), make([]int64, n+1)
		for k := range writes {
			writes[k] = sp.chunk/2 + rng.Intn(sp.chunk+1)
			chunkSeq[k+1] = chunkSeq[k] + int64((writes[k]+mss-1)/mss)
		}
		firstSeq = chunkSeq[int(sp.warmup/sp.period)]
		if need := int(chunkSeq[n] - firstSeq); cap(lat) < need {
			lat = make([]int64, 0, need)
		}
	} else if need := (sp.bulk + mss - 1) / mss; cap(lat) < need {
		lat = make([]int64, 0, need)
	}

	var heap0 uint64
	if mode == passVerify {
		heap0 = heapAlloc()
	}
	net := progmp.NewNetwork(seed)
	conn, err := net.Dial(progmp.ConnConfig{}, sp.paths...)
	if err != nil {
		return nil, lat, err
	}
	if mode == passTraced {
		rec.paused = true // warm-up is not part of the traced region
		conn.Inner().SetScheduler(&tracedScheduler{inner: sched, rec: rec})
	} else {
		conn.SetScheduler(sched)
	}
	var metrics *progmp.Metrics
	if mode == passInstrumented {
		metrics = progmp.NewMetrics()
		conn.Instrument(progmp.NewTracer(0), metrics)
	}

	conn.OnDeliver(func(seq int64, size int, at time.Duration) {
		i := rec.begin(spanDeliver)
		if seq >= firstSeq {
			var due time.Duration
			if sp.chunk > 0 {
				for seq >= chunkSeq[cur+1] { // deliveries are in order
					cur++
				}
				due = time.Duration(cur) * sp.period
			}
			lat = append(lat, int64(at-due))
			p.segments++
		}
		p.digest = (p.digest ^ uint64(seq)<<40 ^ uint64(at)) * 1099511628211
		rec.end(i)
	})
	var checker *mptcp.ConservationChecker
	if mode == passVerify {
		checker = mptcp.NewConservationChecker(conn.Inner())
	}
	var finalAck time.Duration
	var onAcked func()
	onAcked = func() {
		finalAck = net.Now()
		conn.OnAllAcked(onAcked)
	}
	conn.OnAllAcked(onAcked)

	send := func(n int) {
		i := rec.begin(spanSend)
		conn.Send(n)
		rec.end(i)
	}
	if sp.chunk > 0 {
		written := 0
		var write func()
		write = func() {
			send(writes[written])
			written++
			if written < len(writes) {
				net.At(time.Duration(written)*sp.period, write)
			}
		}
		net.At(0, write)
		net.Run(sp.warmup)
	}
	p.setupNS = int64(time.Since(setupStart))

	// Counters at the start of the timed region.
	inner := conn.Inner()
	execs0 := inner.SchedulerExecutions
	var counted0 substrateCounts
	if metrics != nil {
		counted0 = countSubstrate(metrics.Snapshot().Counters)
	}
	var mallocs0 uint64
	if mode == passVerify {
		mallocs0 = mallocCount()
	}

	if rec != nil {
		rec.paused = false
	}
	root := rec.begin(spanWorkload)
	start := net.Now()
	lastWrite := sp.warmup + sp.virtual
	slice := func(fn func()) {
		before := p.segments
		i := rec.begin(spanSlice)
		t0 := time.Now()
		fn()
		ns := int64(time.Since(t0))
		rec.end(i)
		p.slices.add(ns, p.segments-before)
	}
	if sp.chunk == 0 {
		slice(func() { send(sp.bulk) })
	}
	for now := start; ; {
		now += sp.slice
		slice(func() { net.Run(now) })
		if now >= lastWrite && conn.AllAcked() {
			break
		}
		if now > lastWrite+maxDrain {
			return nil, lat, fmt.Errorf("%s: transfer not acknowledged %v after its last write", sp.name, maxDrain)
		}
	}
	rec.end(root)

	p.virtualNS = int64(net.Now() - start)
	p.fctNS = int64(finalAck - start)
	p.execs = inner.SchedulerExecutions - execs0
	if metrics != nil {
		snap := metrics.Snapshot()
		p.counted = countSubstrate(snap.Counters).minus(counted0)
		h := snap.Hists["conn.sched_exec_ns"]
		p.execP50NS, p.execP99NS = h.P50, h.P99
	}
	if mode == passVerify {
		p.mallocs = mallocCount() - mallocs0
		// What the connection still holds once everything it sent is
		// acknowledged: its footprint after the workload, not before.
		goruntime.GC()
		p.heapBytes = int64(heapAlloc()) - int64(heap0)
		p.violations = checker.Violations()
		p.enqueued = inner.TotalEnqueued
		p.delivered = checker.Segments
		p.allAcked = conn.AllAcked()
	}
	return p, lat, nil
}

// substrateCounts are the per-layer counts the obs registry keeps:
// scheduler executions, pushes that became a transmission, subflow
// retransmissions and engine events.
type substrateCounts struct {
	execs, pushes, retx, events int64
}

func countSubstrate(counters map[string]int64) substrateCounts {
	c := substrateCounts{
		execs:  counters["conn.sched_execs"],
		pushes: counters["conn.pushes"],
		events: counters["engine.events"],
	}
	for name, v := range counters {
		if strings.HasSuffix(name, ".retransmits") {
			c.retx += v
		}
	}
	return c
}

func (c substrateCounts) minus(d substrateCounts) substrateCounts {
	return substrateCounts{c.execs - d.execs, c.pushes - d.pushes, c.retx - d.retx, c.events - d.events}
}

// report sets the layer counts every simulation workload reports, per
// delivered segment.
func (c substrateCounts) report(out *outcome, segments int64) {
	segs := float64(segments)
	out.set("mptcp.execs_per_seg", float64(c.execs)/segs)
	out.set("mptcp.pushes_per_exec", float64(c.pushes)/float64(c.execs))
	out.set("mptcp.retx_per_seg", float64(c.retx)/segs)
	out.set("netsim.events_per_seg", float64(c.events)/segs)
}

func heapAlloc() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocCount() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// judge is a transfer's conservation oracle over its verification
// pass: one operation per segment the application wrote, failed when
// the segment is lost, duplicated or out of order, and one for the
// sender ending fully acknowledged.
func (p *transferPass) judge(t *tally, name string) {
	lost := p.enqueued - p.delivered
	if lost < 0 {
		lost = -lost
	}
	t.count(p.enqueued, lost+int64(len(p.violations)),
		"%s: wrote %d segments, %d delivered in order, violations %v", name, p.enqueued, p.delivered, p.violations)
	t.check(p.allAcked, "%s: sender not fully acknowledged at the end", name)
}

// runTransfer is the workload: an untimed verification pass (the
// correctness oracle and the two heap metrics), then timed passes
// until the budget is spent, reduced with the quiet-time estimator. A
// traced run alternates untouched, traced and instrumented passes
// instead, and reports the per-layer numbers that come from them.
func runTransfer(sp transferSpec, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var lat []int64

	verify, lat, err := sp.run(cfg.seed, passVerify, lat, nil)
	if err != nil {
		return nil, err
	}
	verify.judge(&out.tally, sp.name)
	latencies := append([]int64(nil), lat...)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })

	modes := []passMode{passTimed}
	if cfg.traced {
		modes = []passMode{passTimed, passTraced, passInstrumented}
	}
	var reps [passInstrumented + 1][]repetition // by mode
	var last [passInstrumented + 1]*transferPass
	var setups []float64
	minPasses := cfg.size.minReps
	if cfg.traced {
		minPasses = 2 * len(modes) // two of each: the estimator needs a second opinion per slice
	}
	_, err = repeat(cfg.budget, minPasses, func(r int) error {
		mode := modes[r%len(modes)]
		var rec *spanRecorder
		if mode == passTraced {
			// Twice the spans the verified pass would have made: its
			// executions and deliveries, its slices and its writes.
			rec = newSpanRecorder(2*int(verify.execs+2*verify.enqueued) + len(verify.slices.ns))
			out.spans = rec
		}
		var p *transferPass
		p, lat, err = sp.run(cfg.seed, mode, lat, rec)
		if err != nil {
			return err
		}
		// Every pass, whatever it carries, must walk the trajectory the
		// verified pass walked.
		out.check(p.digest == verify.digest, "%s: pass %d delivered a different trajectory than the verified pass", sp.name, r)
		reps[mode] = append(reps[mode], p.slices)
		last[mode] = p
		if mode == passTimed {
			setups = append(setups, float64(p.setupNS)/1e9)
		}
		if rec != nil && rec.dropped > 0 {
			return fmt.Errorf("%s: span recorder dropped %d spans", sp.name, rec.dropped)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	timedNS, segments, err := quietTime(reps[passTimed])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	timed := last[passTimed]
	wall := float64(timedNS) / 1e9
	p50, _ := quantile(latencies, 0.50)
	p99, beyond := quantile(latencies, 0.99)
	out.set("setup_s", median(setups))
	out.set("seg_per_s", float64(segments)/wall)
	out.set("conn_virt_s_per_s", float64(timed.virtualNS)/1e9/wall)
	out.set("delivery_p50_us", float64(p50)/1e3)
	out.set("delivery_p99_us", float64(p99)/1e3)
	out.samples["delivery_p50_us"] = len(latencies)
	out.samples["delivery_p99_us"] = beyond
	out.set("fct_ms", float64(timed.fctNS)/1e6)
	out.set("allocs_per_seg", float64(verify.mallocs)/float64(verify.segments))
	out.set("bytes_per_conn", float64(verify.heapBytes))
	out.set("fail_ratio", float64(out.failed)/float64(out.attempted))
	if !cfg.traced {
		return out, nil
	}

	tracedNS, _, err := quietTime(reps[passTraced])
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", sp.name, err)
	}
	instrNS, _, err := quietTime(reps[passInstrumented])
	if err != nil {
		return nil, fmt.Errorf("%s instrumented: %w", sp.name, err)
	}
	sh := out.spans.shares()
	out.set("trace.exec_share", sh.exec)
	out.set("trace.send_share", sh.send)
	out.set("trace.substrate_share", sh.substrate)
	out.set("trace.overhead_ratio", float64(tracedNS)/float64(timedNS))
	out.set("obs.on_off_ratio", float64(instrNS)/float64(timedNS))
	instr := last[passInstrumented]
	instr.counted.report(out, timed.segments)
	out.set("mptcp.sched_exec_p50_ns", float64(instr.execP50NS))
	out.set("mptcp.sched_exec_p99_ns", float64(instr.execP99NS))
	return out, nil
}
