// Command progmp-trace replays an MPTCP transfer scenario with
// decision tracing enabled and emits the trace, so that every
// transmitted packet's subflow choice is attributable to the scheduler
// execution — and the decision site inside the scheduler program — that
// produced it.
//
// Example:
//
//	progmp-trace -scheduler minRTT -send 262144 -format summary
//	progmp-trace -scheduler redundant -format chrome -o trace.json
//	progmp-trace -kinds PUSH,DROP -o pushes.jsonl
//
// Formats:
//
//	jsonl    one JSON object per event (default; see docs/OBSERVABILITY.md)
//	chrome   Chrome trace_event JSON for chrome://tracing / Perfetto
//	summary  per-kind counts, per-subflow pushes and attribution stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"progmp"
	"progmp/cmd/internal/scenario"
	"progmp/internal/ctl"
	"progmp/internal/obs"
)

// output selects what a replay emits and where.
type output struct {
	format  string
	file    string // "" = stdout
	kinds   string
	metrics bool
	ringCap int
}

func main() {
	var sc scenario.Scenario
	var o output
	sc.RegisterFlags(flag.CommandLine, 1<<18)
	flag.IntVar(&o.ringCap, "cap", 0, "trace ring capacity in events (0 = default 65536)")
	flag.StringVar(&o.format, "format", "jsonl", "output format: jsonl, chrome, summary")
	flag.StringVar(&o.file, "o", "", "output file (default stdout)")
	flag.StringVar(&o.kinds, "kinds", "", "comma-separated event kinds to keep (e.g. PUSH,DROP); empty keeps all")
	flag.BoolVar(&o.metrics, "metrics", false, "append the metrics registry to stderr")
	top := flag.Bool("top", false, "live fleet summary of a running control plane instead of a replay (progmp-top mode)")
	topAddr := flag.String("s", "/tmp/progmp.sock", "-top: control-plane address (Unix socket path or host:port)")
	topInterval := flag.Duration("interval", time.Second, "-top: refresh interval")
	topCount := flag.Int("count", 0, "-top: number of refreshes (0 = until interrupted)")
	flag.Parse()

	var err error
	if *top {
		err = runTop(*topAddr, *topInterval, *topCount)
	} else {
		err = run(&sc, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "progmp-trace:", err)
		os.Exit(1)
	}
}

func run(sc *scenario.Scenario, o output) error {
	tracer, reg, err := replay(sc, o.ringCap)
	if err != nil {
		return err
	}
	events := tracer.Events()
	if o.kinds != "" {
		events, err = filterKinds(events, o.kinds)
		if err != nil {
			return err
		}
	}
	var w io.Writer = os.Stdout
	if o.file != "" {
		f, err := os.Create(o.file)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := emit(w, o.format, events, tracer.Dropped()); err != nil {
		return err
	}
	if o.metrics {
		fmt.Fprint(os.Stderr, reg.Render())
	}
	return nil
}

// replay runs the scenario with tracing and metrics attached and
// returns the instruments after the simulation drains.
func replay(sc *scenario.Scenario, ringCap int) (*progmp.Tracer, *progmp.Metrics, error) {
	tracer := progmp.NewTracer(ringCap)
	reg := progmp.NewMetrics()
	w := sc.NewWorld()
	conn, err := sc.Dial(w, tracer, reg)
	if err != nil {
		return nil, nil, err
	}
	w.Net.At(0, func() { conn.SendWithIntent(sc.Send, sc.Prop) })
	w.Net.Run(sc.Duration)
	return tracer, reg, nil
}

// filterKinds keeps only events whose kind is in the comma-separated
// list.
func filterKinds(events []progmp.TraceEvent, kinds string) ([]progmp.TraceEvent, error) {
	keep := map[obs.EventKind]bool{}
	for _, name := range strings.Split(kinds, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := obs.KindFromString(name)
		if !ok {
			return nil, fmt.Errorf("unknown event kind %q", name)
		}
		keep[k] = true
	}
	var out []progmp.TraceEvent
	for _, ev := range events {
		if keep[ev.Kind] {
			out = append(out, ev)
		}
	}
	return out, nil
}

func emit(w io.Writer, format string, events []progmp.TraceEvent, dropped uint64) error {
	switch format {
	case "jsonl":
		return progmp.WriteTraceJSONL(w, events)
	case "chrome":
		return progmp.WriteChromeTrace(w, events)
	case "summary":
		return writeSummary(w, events, dropped)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// writeSummary renders per-kind counts, per-subflow pushes and the
// attribution statistics: how many transmissions trace back to a
// scheduler execution event retained in the ring.
func writeSummary(w io.Writer, events []progmp.TraceEvent, dropped uint64) error {
	kindCount := map[string]int{}
	sbfPushes := map[int32]int{}
	execs := map[uint64]bool{}
	var pushes, attributed int
	for _, ev := range events {
		kindCount[ev.Kind.String()]++
		if ev.Kind == obs.EvExecStart {
			execs[ev.Exec] = true
		}
	}
	for _, ev := range events {
		if ev.Kind != obs.EvPush {
			continue
		}
		pushes++
		sbfPushes[ev.Sbf]++
		if ev.Exec != 0 && execs[ev.Exec] {
			attributed++
		}
	}
	fmt.Fprintf(w, "events    %d retained, %d overwritten\n", len(events), dropped)
	names := make([]string, 0, len(kindCount))
	for name := range kindCount {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-12s %d\n", name, kindCount[name])
	}
	sbfs := make([]int, 0, len(sbfPushes))
	for id := range sbfPushes {
		sbfs = append(sbfs, int(id))
	}
	sort.Ints(sbfs)
	for _, id := range sbfs {
		fmt.Fprintf(w, "pushes on subflow %d: %d\n", id, sbfPushes[int32(id)])
	}
	if pushes > 0 {
		fmt.Fprintf(w, "attribution: %d/%d transmissions trace to a retained scheduler execution\n", attributed, pushes)
	}
	// Quarantine events carry the static analyzer's warning count at
	// admission in Site: a non-zero count means the supervisor had to
	// degrade a scheduler the admission gate had already flagged.
	var quarantines int
	var admissionWarn int32
	for _, ev := range events {
		if ev.Kind == obs.EvGuardQuarantine {
			quarantines++
			if ev.Site > admissionWarn {
				admissionWarn = ev.Site
			}
		}
	}
	if quarantines > 0 && admissionWarn > 0 {
		fmt.Fprintf(w, "quarantined scheduler was admitted with %d analyzer warning(s); run progmp-vet on it\n", admissionWarn)
	}
	return nil
}

// runTop is progmp-top: a live fleet dashboard over a running control
// plane. Each frame shows the connection table (list verb) and the
// fleet-aggregated metrics (metrics-agg verb) — totals, hot-path
// latency quantiles, control-plane self-metrics.
func runTop(addr string, interval time.Duration, count int) error {
	network := ctl.NetworkOf(addr)
	c, err := ctl.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("connecting to %s://%s: %w", network, addr, err)
	}
	defer c.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			select {
			case <-sig:
				return nil
			case <-time.After(interval):
			}
		}
		frame, err := topFrame(c)
		if err != nil {
			return err
		}
		if count != 1 {
			// Clear and home between refreshes; a single-shot frame
			// (-count 1) stays pipeable.
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(frame)
	}
	return nil
}

// topFrame renders one dashboard frame.
func topFrame(c *ctl.Client) (string, error) {
	ping, err := c.Ping()
	if err != nil {
		return "", err
	}
	list, err := c.List()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "progmp-top  virtual %v  conns %d\n",
		(time.Duration(ping.NowUS) * time.Microsecond).Round(time.Millisecond), len(list.Conns))
	for _, ci := range list.Conns {
		sched := ci.Scheduler
		if ci.Supervised {
			sched += " guarded:" + ci.GuardState
		}
		fmt.Fprintf(&b, "  conn %-2d %-10s %-24s queued=%-6d unacked=%-6d allAcked=%v\n",
			ci.ID, ci.Name, sched, ci.QueuedSegs, ci.UnackedSegs, ci.AllAcked)
	}
	// Fleet aggregation is optional server-side; a server without an
	// aggregator still gets the connection table.
	agg, err := c.MetricsAgg("json")
	if err != nil || agg.Snapshot == nil {
		fmt.Fprintf(&b, "fleet metrics unavailable: no aggregator attached\n")
		return b.String(), nil
	}
	snap := agg.Snapshot
	fmt.Fprintf(&b, "fleet    %d metric sources\n", agg.NumSources)
	for _, name := range []string{"conn.sched_execs", "conn.pushes", "conn.reinjects", "conn.drops", "ctl.requests"} {
		if v, ok := snap.Counters[name]; ok {
			fmt.Fprintf(&b, "  %-24s %12d\n", name, v)
		}
	}
	// A connection times one scheduler execution in 16, so the two
	// conn histograms count a sample, not every execution.
	for _, hist := range []struct{ name, note string }{
		{"conn.sched_exec_ns", " (1 in 16 sampled)"},
		{"conn.sched_apply_ns", " (1 in 16 sampled)"},
		{"ctl.request_ns", ""},
	} {
		if h, ok := snap.Hists[hist.name]; ok && h.Count > 0 {
			fmt.Fprintf(&b, "  %-24s n=%-9d p50=%-7d p99=%-7d p999=%d ns%s\n",
				hist.name, h.Count, h.P50, h.P99, h.P999, hist.note)
		}
	}
	return b.String(), nil
}
