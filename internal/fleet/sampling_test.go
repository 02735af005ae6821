package fleet

import (
	"math"
	"testing"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// sampleEvery is the share of scheduler executions an instrumented
// connection times: one in every aligned block of 16 counts on the
// shared conn.sched_execs counter.
const sampleEvery = 16

// samplingProbe wraps a one-shard fleet's scheduler and sorts its
// executions into timed and untimed by watching the shard's
// conn.sched_exec_ns histogram: the connection observes it after the
// apply, so a count that moved between two executions belongs to the
// earlier one. Connections are told apart by their register file (Env.Regs).
type samplingProbe struct {
	inner mptcp.Scheduler
	execs *obs.Counter   // the shard's conn.sched_execs
	hist  *obs.Histogram // the shard's conn.sched_exec_ns

	perConn   map[*[runtime.NumRegisters]int64]int64 // executions so far, by connection (its register file)
	last      *execRecord                            // the execution before this one
	lastCount int64                                  // hist count when it ran

	census, censusPushes int64
	timed                []execRecord
}

// execRecord is one execution: its count on conn.sched_execs, its index
// in its connection's own sequence, and whether it pushed.
type execRecord struct {
	count, connIdx int64
	pushed         bool
}

func (p *samplingProbe) Exec(env *runtime.Env) {
	p.settle()
	rec := &execRecord{count: p.execs.Value(), connIdx: p.perConn[env.Regs]}
	p.perConn[env.Regs]++
	p.inner.Exec(env)
	for _, a := range env.Actions {
		if a.Kind == runtime.ActionPush {
			rec.pushed = true
			break
		}
	}
	p.census++
	if rec.pushed {
		p.censusPushes++
	}
	p.last, p.lastCount = rec, p.hist.Count()
}

// settle files the previous execution as timed when the histogram
// moved since it began.
func (p *samplingProbe) settle() {
	if p.last != nil && p.hist.Count() != p.lastCount {
		p.timed = append(p.timed, *p.last)
	}
	p.last = nil
}

// within3σ reports whether k successes in n trials are within three
// binomial standard deviations of success probability q.
func within3σ(k, n int64, q float64) (ok bool, mean, bound float64) {
	mean = float64(n) * q
	bound = 3 * math.Sqrt(float64(n)*q*(1-q))
	return math.Abs(float64(k)-mean) <= bound, mean, bound
}

// TestExecSamplingIsUnbiased pins the decision-latency sampling rule on
// a one-shard fleet of 500 connections: the connections time exactly
// one execution in each block of 16 shard-wide counts, and the timed
// executions are a fair sample of the census. Every connection runs the
// same closed loop, so a rule keyed on a connection's own execution
// index picks the same point of every burst, and a fixed offset in the
// shared count locks onto the shape of the scheduling passes (timed
// executions pushed 7σ less often than the census on this fleet). The
// fleet is deterministic, so the 3σ bounds below check one fixed
// sample; they are not flaky statistics.
func TestExecSamplingIsUnbiased(t *testing.T) {
	cfg := Config{
		Conns:        500,
		Shards:       1,
		Seed:         7,
		Duration:     time.Second,
		NewScheduler: vmScheduler(t, "minRTT"),
		Program:      "minRTT",
	}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	inner, err := cfg.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	probe := &samplingProbe{inner: inner, perConn: map[*[runtime.NumRegisters]int64]int64{}}
	sh := newShard(&cfg, probe)
	sh.out = newTally(cfg.Conns, cfg.Conservation)
	probe.execs = sh.reg.Counter("conn.sched_execs")
	probe.hist = sh.reg.Histogram("conn.sched_exec_ns")
	for i := 0; i < cfg.Conns; i++ {
		fc, err := buildConn(&cfg, i, sh)
		if err != nil {
			t.Fatal(err)
		}
		sh.conns = append(sh.conns, fc)
	}
	sh.run()
	probe.settle()

	if len(probe.perConn) != cfg.Conns {
		t.Fatalf("%d connections executed the scheduler, want %d", len(probe.perConn), cfg.Conns)
	}
	n := probe.execs.Value()
	if probe.census != n {
		t.Fatalf("probe saw %d executions, conn.sched_execs counted %d", probe.census, n)
	}
	timed := int64(len(probe.timed))
	if hist := probe.hist.Count(); hist != timed {
		t.Fatalf("histogram counts %d timed executions, probe attributed %d", hist, timed)
	}
	if apply := sh.reg.Histogram("conn.sched_apply_ns").Count(); apply != timed {
		t.Fatalf("apply histogram count %d != exec histogram count %d", apply, timed)
	}

	// Exactly one timed execution in every complete block of 16 counts
	// (counts 16b+1..16b+16 form block b), at most one in the last,
	// partial block.
	if full := n / sampleEvery; timed != full && !(timed == full+1 && n%sampleEvery != 0) {
		t.Fatalf("timed %d of %d executions, want %d (one per complete block of %d)", timed, n, full, sampleEvery)
	}
	var byOffset, byConnIdx [sampleEvery]int64
	timedPushes := int64(0)
	for i, r := range probe.timed {
		if b := (r.count - 1) / sampleEvery; b != int64(i) {
			t.Fatalf("timed execution %d has count %d, in block %d", i, r.count, b)
		}
		byOffset[(r.count-1)%sampleEvery]++
		byConnIdx[r.connIdx%sampleEvery]++
		if r.pushed {
			timedPushes++
		}
	}

	// The timed executions push as often as all executions do.
	share := float64(probe.censusPushes) / float64(probe.census)
	if ok, mean, bound := within3σ(timedPushes, timed, share); !ok {
		t.Errorf("%d of %d timed executions pushed, census share %.4f gives %.0f ± %.0f",
			timedPushes, timed, share, mean, bound)
	}
	// They sit at every offset within a block alike, and at every point
	// of a connection's own sequence alike.
	for r := 0; r < sampleEvery; r++ {
		if ok, mean, bound := within3σ(byOffset[r], timed, 1.0/sampleEvery); !ok {
			t.Errorf("block offset %d: %d timed executions, want %.0f ± %.0f", r, byOffset[r], mean, bound)
		}
		if ok, mean, bound := within3σ(byConnIdx[r], timed, 1.0/sampleEvery); !ok {
			t.Errorf("per-connection index ≡ %d (mod %d): %d timed executions, want %.0f ± %.0f",
				r, sampleEvery, byConnIdx[r], mean, bound)
		}
	}
	t.Logf("%d executions, %d timed; push share census %.4f, timed %.4f",
		n, timed, share, float64(timedPushes)/float64(timed))
}
