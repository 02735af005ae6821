// Command mpsim runs one MPTCP transfer scenario in the simulated
// network and reports per-subflow statistics and flow outcomes.
//
// Example:
//
//	mpsim -scheduler minRTT -send 1048576 \
//	      -path wifi:3e6:5ms:0:pref -path lte:8e6:20ms:0.01:backup
//
// With -guard the scheduler runs under supervision (panic recovery,
// strikes on refused actions, stall detection, graceful degradation to native
// MinRTT). With -chaos the normal scenario is replaced by a seeded
// fault-injection soak:
//
//	mpsim -chaos meltdown -seed 7 -scheduler redundant
//	mpsim -chaos all -seed 42
//
// With -ctl the run is paced against the wall clock and serves the
// control plane on a socket, so a second terminal can steer it while
// it progresses (see docs/CONTROL.md and cmd/progmpctl):
//
//	mpsim -ctl /tmp/mpsim.sock -pace 1 -send 50000000 -duration 5m &
//	progmpctl -s /tmp/mpsim.sock swap redundant
//
// With -xstate every connection of the run (see -conns) attaches to
// one cross-connection shared-state store (docs/SHAREDSTATE.md):
// schedulers exchange the global registers G1..G8 and per-destination
// path statistics (XRTT, XLOST, XDELIVERED, XQUAR), and the control
// plane gains the gget/gset/deststats verbs:
//
//	mpsim -xstate -conns 4 -scheduler jointFlow -ctl /tmp/mpsim.sock &
//	progmpctl -s /tmp/mpsim.sock deststats
//	progmpctl -s /tmp/mpsim.sock gset G1 8
//
// With -fleet N the run becomes a sharded soak (docs/FLEET.md): N
// concurrent connections partitioned across per-core shards, each
// shard a batched event loop over self-contained connection worlds,
// reporting fleet p50/p99 scheduler-decision and delivery latency and
// bytes/conn: the heap the worlds the run keeps resident cost to build,
// over the connection count — every world with -xstate or -guard, one
// per shard without (fleet.Result.BytesPerConn):
//
//	mpsim -fleet 100000
//	mpsim -fleet 10000 -shards 4 -xstate -dest-groups 64 -metrics-http :9100
//
// The three modes read different flags; a flag set explicitly that the
// chosen mode would ignore is refused (exit 2) instead of dropped:
//
//	every mode   -scheduler -backend -seed -cpuprofile -memprofile
//	classic      -send -prop -r1 -cc -path -pathmgr -conns -duration
//	             -guard -xstate -trace -metrics -metrics-interval
//	             -metrics-out -metrics-http -ctl -pace
//	-fleet N     -shards -fleet-send -dest-groups -duration -guard
//	             -xstate -metrics-http
//	-chaos NAME  (nothing further; scenarios fix paths and workload)
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"progmp"
	"progmp/internal/ctl"
	"progmp/internal/fleet"
	"progmp/internal/mptcp"
)

// accepted lists, per mode, the flags the mode reads.
var accepted = map[string]string{
	"classic": "scheduler backend seed cpuprofile memprofile send prop r1 cc path pathmgr conns duration " +
		"guard xstate trace metrics metrics-interval metrics-out metrics-http ctl pace",
	"fleet": "scheduler backend seed cpuprofile memprofile fleet shards fleet-send dest-groups duration " +
		"guard xstate metrics-http",
	"chaos": "scheduler backend seed cpuprofile memprofile chaos",
}

// classicMode is what a classic run does besides the scenario itself:
// its instruments and the live control plane.
type classicMode struct {
	Trace       string
	Metrics     bool
	Interval    time.Duration
	MetricsOut  string
	MetricsHTTP string
	Ctl         string
	Pace        float64
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main with its streams and exit status as values: 0 done, 1
// the run failed, 2 the command line was refused.
func cli(args []string, out, errw io.Writer) int {
	var sc Scenario
	var cm classicMode
	var fc fleet.Config // the sharded soak's size; runFleet fills in the rest
	fs := flag.NewFlagSet("mpsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	sc.RegisterFlags(fs)
	fs.StringVar(&cm.Trace, "trace", "", "write a JSONL decision trace of the run to FILE")
	fs.BoolVar(&cm.Metrics, "metrics", false, "print the metrics registry after the run")
	chaos := fs.String("chaos", "", "run a chaos soak instead: scenario name or \"all\" (see -chaos list)")
	fs.StringVar(&cm.Ctl, "ctl", "", "serve the control plane on ADDR (a Unix socket path, or host:port for TCP) and run live")
	fs.Float64Var(&cm.Pace, "pace", 0, "live pacing with -ctl: virtual seconds per wall second (1 = real time, 0 = real time default, <0 = unpaced)")
	fs.DurationVar(&cm.Interval, "metrics-interval", 0, "sample the run's aggregated metrics every D of virtual time (classic mode)")
	fs.StringVar(&cm.MetricsOut, "metrics-out", "", "write the sampled metrics time-series as JSONL to FILE (implies -metrics-interval 100ms)")
	fs.StringVar(&cm.MetricsHTTP, "metrics-http", "", "serve the OpenMetrics exposition on host:port")
	fs.IntVar(&fc.Conns, "fleet", 0, "run a sharded fleet soak with N concurrent connections instead of a single scenario")
	fs.IntVar(&fc.Shards, "shards", 0, "fleet shard count (default GOMAXPROCS)")
	fs.IntVar(&fc.SendBytes, "fleet-send", 16<<10, "fleet per-burst transfer size in bytes")
	fs.IntVar(&fc.DestGroups, "dest-groups", 0, "fleet destination-identity groups (spreads shared-store records; 0 = one identity per path)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to FILE")
	memProfile := fs.String("memprofile", "", "write a heap profile to FILE when the run ends")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mode := "classic"
	if fc.Conns > 0 {
		mode = "fleet"
	} else if *chaos != "" {
		mode = "chaos"
	}
	set := map[string]bool{}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !slices.Contains(strings.Fields(accepted[mode]), f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		fmt.Fprintf(errw, "mpsim: %s mode does not read %s (it accepts: -%s)\n",
			mode, strings.Join(ignored, ", "), strings.ReplaceAll(accepted[mode], " ", " -"))
		return 2
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(errw, "mpsim:", err)
		return 1
	}
	switch mode {
	case "fleet":
		// The 60s scenario default is a fleet-scale eternity; soak for
		// 2s of virtual time unless -duration was given explicitly.
		if !set["duration"] {
			sc.Duration = 2 * time.Second
		}
		err = runFleet(&sc, out, fc, cm.MetricsHTTP)
	case "chaos":
		err = runChaos(&sc, out, *chaos)
	default:
		if cm.MetricsOut != "" && cm.Interval <= 0 {
			cm.Interval = 100 * time.Millisecond
		}
		err = run(&sc, out, cm)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(errw, "mpsim:", err)
		return 1
	}
	return 0
}

// startProfiles starts a CPU profile into cpuFile and returns the
// function that ends it and writes a heap profile into memFile. Either
// name may be empty to skip that profile.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		f, err := os.Create(memFile)
		if err != nil {
			return err
		}
		runtime.GC() // the profile reports live heap as of the last GC
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		return f.Close()
	}, nil
}

// serveMetricsHTTP serves the OpenMetrics exposition of opts.Agg on
// addr until the returned stop function runs. Aggregate reads each
// registry with atomic loads, so serving never blocks the simulation.
func serveMetricsHTTP(addr string, opts ctl.Options, out io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := ctl.NewServer(opts)
	go srv.ServeMetricsHTTP(ln)
	fmt.Fprintf(out, "metrics http    http://%s/metrics\n", ln.Addr())
	return srv.Close, nil
}

// runFleet drives the sharded fleet soak (internal/fleet): fc.Conns
// self-contained connection worlds across per-core shards, optional
// shared-state store and guard supervision, the OpenMetrics
// exposition served live off the shard loops' aggregated registries.
func runFleet(sc *Scenario, out io.Writer, fc fleet.Config, metricsHTTP string) error {
	fc.NewScheduler = func() (mptcp.Scheduler, error) {
		return LoadScheduler(sc.Scheduler, sc.Backend)
	}
	// Fail fast on a bad scheduler/backend before building 100k worlds.
	if _, err := fc.NewScheduler(); err != nil {
		return err
	}
	fc.Seed = sc.Seed
	fc.Duration = sc.Duration
	fc.Program = sc.Scheduler
	fc.Guard = sc.Guard
	fc.Agg = progmp.NewMetricsAggregator()
	if sc.XState {
		fc.Store = progmp.NewSharedStore()
	}
	if metricsHTTP != "" {
		stop, err := serveMetricsHTTP(metricsHTTP, ctl.Options{Agg: fc.Agg}, out)
		if err != nil {
			return err
		}
		defer stop()
	}
	res, err := fleet.Run(fc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet           %d conns, %d shard(s), %v virtual in %v wall\n",
		res.Conns, res.Shards, res.VirtualDuration, res.Wall.Round(time.Millisecond))
	fmt.Fprintf(out, "scheduler       %s (%s backend, shared per shard)\n", sc.Scheduler, sc.Backend)
	fmt.Fprintf(out, "decision p50    %d ns   p99 %d ns\n", res.DecisionP50NS, res.DecisionP99NS)
	fmt.Fprintf(out, "delivery p50    %d us   p99 %d us\n", res.DeliveryP50US, res.DeliveryP99US)
	fmt.Fprintf(out, "bytes/conn      %d\n", res.BytesPerConn)
	fmt.Fprintf(out, "delivered       %d bytes in %d bursts (%d/%d conns fully acked)\n",
		res.DeliveredBytes, res.Bursts, res.Acked, res.Conns)
	fmt.Fprintf(out, "events          %d\n", res.Events)
	visits := fc.Agg.Aggregate().Counters["fleet.visits"]
	fmt.Fprintf(out, "visits          %d (%.2f per conn)\n", visits, float64(visits)/float64(res.Conns))
	if fc.Store != nil {
		fmt.Fprintf(out, "shared state    epoch %d, %d live dest(s), %d evicted\n",
			fc.Store.Epoch(), fc.Store.NumDests(), res.EvictedDests)
	}
	return nil
}

// runChaos soaks the scheduler through one (or every) chaos scenario
// and verifies conservation: every byte delivered exactly once, in
// order, fully acknowledged.
func runChaos(sc *Scenario, out io.Writer, name string) error {
	names := []string{name}
	if name == "all" {
		names = progmp.ChaosScenarioNames()
	} else if name == "list" {
		for _, name := range progmp.ChaosScenarioNames() {
			fmt.Fprintf(out, "%-10s %s\n", name, progmp.ChaosScenarioDesc(name))
		}
		return nil
	}
	sched, err := LoadScheduler(sc.Scheduler, sc.Backend)
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range names {
		res, err := progmp.RunChaos(name, sc.Seed, sched)
		if err != nil {
			failed++
			fmt.Fprintf(out, "FAIL %-10s seed=%d: %v\n", name, sc.Seed, err)
			continue
		}
		fmt.Fprintf(out, "PASS %-10s seed=%d delivered=%d segments=%d fct=%v closed=%d promoted=%d\n",
			name, res.Seed, res.DeliveredBytes, res.Segments, res.FCT.Round(time.Millisecond),
			res.ClosedByManager, res.Promotions)
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d chaos scenarios failed conservation", failed, len(names))
	}
	return nil
}

// writeFile creates path, hands it to write, and closes it, returning
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is the classic mode: sc.Conns connections of the scenario on one
// network, driven to the horizon (live under -ctl), then the report.
func run(sc *Scenario, out io.Writer, cm classicMode) error {
	w := sc.NewWorld()
	nw := w.Net
	// The primary connection carries the run's tracer (the control
	// plane needs one for its subscribe verb) and, when anything reads
	// metrics, a registry; every registry feeds one aggregator, so the
	// ctl metrics-agg verb, the HTTP exposition and the time-series
	// recorder see the whole run.
	var tracer *progmp.Tracer
	if cm.Trace != "" || cm.Ctl != "" {
		tracer = progmp.NewTracer(0)
	}
	var reg *progmp.Metrics
	var agg *progmp.MetricsAggregator
	if cm.Metrics || cm.Ctl != "" || sc.Conns > 1 || cm.Interval > 0 || cm.MetricsHTTP != "" {
		reg = progmp.NewMetrics()
		agg = progmp.NewMetricsAggregator()
	}
	var delivered int64
	var fct time.Duration
	n := max(sc.Conns, 1)
	conns := make([]*progmp.Conn, 0, n)
	for i := 1; i <= n; i++ {
		t, m := tracer, reg
		if i > 1 {
			// Secondaries: same scenario, an own labeled registry each.
			t, m = nil, progmp.NewMetrics()
		}
		conn, err := sc.Dial(w, t, m)
		if err != nil {
			return err
		}
		if agg != nil {
			agg.Attach(progmp.MetricsLabels{Conn: fmt.Sprintf("c%d", i), Scheduler: sc.Scheduler}, m)
		}
		if i == 1 {
			if w.Store != nil && reg != nil {
				// The store's epochs/gsets/dests counters ride the
				// primary registry into the fleet aggregation.
				w.Store.Instrument(reg)
			}
			conn.OnDeliver(func(_ int64, size int, at time.Duration) {
				delivered += int64(size)
				if delivered >= int64(sc.Send) && fct == 0 {
					fct = at
				}
			})
		} else {
			// Teardown wiring: once a secondary transfer fully drains,
			// the connection leaves the fleet merge — the exposition
			// stops carrying the finished source instead of serving it
			// forever — and its shared-store destination references are
			// released so idle records can be evicted.
			conn.OnAllAcked(func() {
				agg.Remove(m)
				conn.ReleaseDests()
			})
		}
		nw.At(0, func() { conn.SendWithIntent(sc.Send, sc.Prop) })
		conns = append(conns, conn)
	}

	// Time-series recorder: samples on the virtual clock via a
	// self-rescheduling event, so it works identically under Run and
	// RunLive.
	var series *progmp.MetricsTimeSeries
	if cm.Interval > 0 {
		series = progmp.NewMetricsTimeSeries(agg)
		var tick func()
		next := cm.Interval
		tick = func() {
			series.Sample(nw.Now())
			next += cm.Interval
			if next <= sc.Duration {
				nw.At(next, tick)
			}
		}
		nw.At(cm.Interval, tick)
	}
	if cm.MetricsHTTP != "" {
		stop, err := serveMetricsHTTP(cm.MetricsHTTP, ctl.Options{Network: nw, Agg: agg}, out)
		if err != nil {
			return err
		}
		defer stop()
	}

	if cm.Ctl != "" {
		srv := ctl.NewServer(ctl.Options{Network: nw, Tracer: tracer, Metrics: reg, Agg: agg, Fleet: w.Fleet, Store: w.Store})
		srv.Register("mpsim", conns[0])
		for i, xc := range conns[1:] {
			srv.Register(fmt.Sprintf("mpsim%d", i+2), xc)
		}
		if err := runWithControlPlane(sc, out, liveMode{nw, srv, cm.Ctl, cm.Pace}); err != nil {
			return err
		}
	} else {
		nw.Run(sc.Duration)
	}

	fmt.Fprintf(out, "scheduler       %s (%s backend)\n", sc.Scheduler, sc.Backend)
	fmt.Fprintf(out, "transferred     %d / %d bytes\n", delivered, sc.Send)
	if fct > 0 {
		fmt.Fprintf(out, "completion time %v\n", fct)
		fmt.Fprintf(out, "goodput         %.2f MB/s\n", float64(sc.Send)/fct.Seconds()/1e6)
	} else {
		fmt.Fprintf(out, "completion time DID NOT COMPLETE within %v\n", sc.Duration)
	}
	fmt.Fprintf(out, "%-8s %12s %10s %8s %8s %10s\n", "subflow", "bytes", "packets", "retx", "srtt", "cwnd")
	for _, s := range conns[0].Subflows() {
		fmt.Fprintf(out, "%-8s %12d %10d %8d %8v %10.1f\n",
			s.Name, s.BytesSent, s.PktsSent, s.Retransmissions, s.SRTT.Round(time.Millisecond), s.Cwnd)
	}
	if sup := conns[0].Supervisor(); sup != nil {
		fmt.Fprintf(out, "guard           state=%v strikes=%d panics=%d violations=%d stalls=%d quarantines=%d restores=%d\n",
			sup.State(), sup.Strikes(), sup.Panics, sup.Violations, sup.Stalls, sup.Quarantines, sup.Restores)
	}
	if cm.Trace != "" {
		events := tracer.Events()
		if err := writeFile(cm.Trace, func(f io.Writer) error { return progmp.WriteTraceJSONL(f, events) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace           %s (%d events, %d overwritten)\n", cm.Trace, len(events), tracer.Dropped())
	}
	if extras := conns[1:]; len(extras) > 0 {
		done := 0
		for _, xc := range extras {
			if xc.AllAcked() {
				done++
			}
		}
		fmt.Fprintf(out, "fleet           %d connections (%d secondary complete)\n", len(conns), done)
		// Completed secondaries leave the aggregation (see the teardown
		// wiring above), so the live-source count proves the exposition
		// stopped serving finished connections.
		fmt.Fprintf(out, "exposition      %d live source(s)\n", agg.NumSources())
	}
	if w.Store != nil {
		snap := w.Store.Load()
		dests := snap.All()
		fmt.Fprintf(out, "shared state    epoch %d, %d destination(s)\n", snap.Epoch, len(dests))
		for i, g := range snap.Globals {
			if g != 0 {
				fmt.Fprintf(out, "  G%d = %d\n", i+1, g)
			}
		}
		for _, d := range dests {
			fmt.Fprintf(out, "  %s\n", d)
		}
	}
	if series != nil {
		if cm.MetricsOut != "" {
			if err := writeFile(cm.MetricsOut, series.WriteJSONL); err != nil {
				return err
			}
			fmt.Fprintf(out, "metrics series  %s (%d samples, %d overwritten)\n", cm.MetricsOut, series.Len(), series.Dropped())
		} else {
			fmt.Fprintf(out, "metrics series  %d samples retained (%d overwritten)\n", series.Len(), series.Dropped())
		}
	}
	if cm.Metrics {
		fmt.Fprint(out, reg.Snapshot().Render())
	}
	return nil
}

// liveMode is a control-plane run: the network to pace, the server
// steering it, and where and how fast.
type liveMode struct {
	nw   *progmp.Network
	srv  *ctl.Server
	addr string
	pace float64
}

// runWithControlPlane drives the scenario with RunLive while the ctl
// server on lm.addr lets a second process (progmpctl) steer it. SIGINT
// and SIGTERM shut the run down gracefully: the server drains (stops
// accepting, finishes inflight requests, ends subscriptions, flushes
// the fleet metrics) before the simulation stops.
func runWithControlPlane(sc *Scenario, out io.Writer, lm liveMode) error {
	nw, srv, pace := lm.nw, lm.srv, lm.pace
	network := ctl.NetworkOf(lm.addr)
	if network == "unix" {
		os.Remove(lm.addr) // a stale socket file from a previous run
	}
	ln, err := net.Listen(network, lm.addr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	if pace == 0 {
		pace = 1 // real time, so there is something to steer
	}
	fmt.Fprintf(out, "control plane   %s://%s (pace %gx)\n", network, lm.addr, pace)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if !ok {
			return // run ended on its own
		}
		fmt.Fprintf(os.Stderr, "mpsim: %v: draining control plane\n", s)
		srv.Drain()
		nw.StopLive()
	}()
	// A remote `progmpctl drain` should end the whole process, not just
	// the control plane: watch for it and stop the live run too.
	drainPoll := time.NewTicker(100 * time.Millisecond)
	go func() {
		for range drainPoll.C {
			if srv.Draining() {
				nw.StopLive()
				return
			}
		}
	}()
	nw.RunLive(sc.Duration, pace)
	drainPoll.Stop()
	signal.Stop(sig)
	close(sig)
	nw.StopLive()
	srv.Close()
	if network == "unix" {
		os.Remove(lm.addr)
	}
	return nil
}
