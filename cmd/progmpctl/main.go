// Command progmpctl drives the ProgMP control plane of a live
// simulation (a process running with `mpsim -ctl`, or any embedder of
// internal/ctl): the out-of-process face of the paper's userspace
// library. It lists connections, compiles and hot-swaps schedulers,
// reads and writes registers, triggers sends, snapshots metrics, and
// streams live decision-trace events.
//
// Usage:
//
//	progmpctl [-s ADDR] [-conn N] <command> [args]
//
//	ping                         server liveness + virtual clock
//	list                         connections, schedulers, registers, subflows
//	schedulers                   names available to compile and swap
//	compile <name|file> [backend]  verify + compile without installing
//	swap    <name|file> [backend]  hot-swap the connection's scheduler
//	                             (-force installs despite analyzer warnings
//	                             or a fleet block)
//	getreg  <R1..R8|idx>         read a scheduler register
//	setreg  <R1..R8|idx> <value> write a scheduler register
//	gget    <G1..G8|idx>         read a shared-store global register
//	gset    <G1..G8|idx> <value> write a shared-store global register
//	deststats                    per-destination shared path statistics
//	send    <bytes> [prop]       enqueue bytes with a scheduling intent
//	metrics                      metrics registry snapshot
//	metrics-agg [json|text]      fleet-wide aggregated metrics (text = OpenMetrics)
//	drain                        gracefully shut the server down
//	watch   [kinds...]           stream trace events as JSONL (ctrl-C to stop)
//	top     [N]                  live dashboard: connections and fleet metrics,
//	                             refreshed every second N times (0 or absent =
//	                             until ctrl-C; top 1 prints one pipeable frame)
//
// ADDR is a Unix socket path (default /tmp/progmp.sock) or host:port
// for TCP. -conn selects the target connection from `list` (default 1).
// Every call is bounded by its verb's deadline; read-only verbs are
// retried across reconnects with jittered backoff, the others are
// attempted once.
//
// Example against a live mpsim (second terminal):
//
//	mpsim -ctl /tmp/mpsim.sock -send 50000000 -duration 5m
//	progmpctl -s /tmp/mpsim.sock list
//	progmpctl -s /tmp/mpsim.sock setreg R1 4000000
//	progmpctl -s /tmp/mpsim.sock swap redundant
//	progmpctl -s /tmp/mpsim.sock watch SCHED_SWAP GUARD_QUARANTINE
//	progmpctl -s /tmp/mpsim.sock top
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"progmp"
	"progmp/internal/ctl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are progmpctl's flags.
type options struct {
	addr   string
	connID int
	force  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("progmpctl", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.addr, "s", "/tmp/progmp.sock", "server address: Unix socket path or host:port")
	fl.IntVar(&o.connID, "conn", 1, "target connection id (see list)")
	fl.BoolVar(&o.force, "force", false, "swap: install despite static-analyzer warnings or a fleet block")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: progmpctl [-s ADDR] [-conn N] <command> [args]\n")
		fmt.Fprintf(stderr, "commands: ping list schedulers compile swap getreg setreg gget gset deststats send metrics metrics-agg drain watch top\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() == 0 {
		fl.Usage()
		return 2
	}
	if err := command(o, fl.Args(), stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "progmpctl:", err)
		printDiags(stderr, err)
		return 1
	}
	return 0
}

// command runs one verb, printing its result to w.
func command(o options, args []string, w, stderr io.Writer) error {
	// The client dials lazily, so connection errors surface on the call.
	c := ctl.Dial(o.addr)
	defer c.Close()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ping":
		res, err := c.Ping()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ok, virtual time %v\n", time.Duration(res.NowUS)*time.Microsecond)
		return nil
	case "list":
		res, err := c.List()
		if err != nil {
			return err
		}
		printList(w, res)
		return nil
	case "schedulers":
		names, err := c.Schedulers()
		if err != nil {
			return err
		}
		for _, name := range names {
			fmt.Fprintln(w, name)
		}
		return nil
	case "compile":
		name, src, backend, err := programArgs(rest)
		if err != nil {
			return err
		}
		res, err := c.Compile(name, src, backend)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ok: %s on %s backend, %d bytes resident\n", res.Name, res.Backend, res.MemoryBytes)
		if res.StepBound != "" {
			fmt.Fprintf(w, "step bound: %s (%d steps at reference size)\n", res.StepBound, res.StepBoundSteps)
		}
		for _, d := range res.Diagnostics {
			fmt.Fprintf(w, "%s: %s\n", res.Name, d)
		}
		if res.Warnings > 0 {
			fmt.Fprintf(w, "%d warning(s): swap will refuse this program without -force\n", res.Warnings)
		}
		return nil
	case "swap":
		name, src, backend, err := programArgs(rest)
		if err != nil {
			return err
		}
		res, err := c.Swap(o.connID, name, src, backend, o.force)
		if err != nil {
			return err
		}
		state := ""
		if res.Supervised {
			state = " (supervised)"
		}
		fmt.Fprintf(w, "conn %d: %s -> %s on %s backend%s\n",
			res.Conn, res.PrevScheduler, res.Scheduler, res.Backend, state)
		return nil
	case "getreg":
		if len(rest) != 1 {
			return fmt.Errorf("getreg <R1..R8|index>")
		}
		reg, err := parseReg(rest[0])
		if err != nil {
			return err
		}
		v, err := c.GetReg(o.connID, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "R%d = %d\n", reg+1, v)
		return nil
	case "setreg":
		if len(rest) != 2 {
			return fmt.Errorf("setreg <R1..R8|index> <value>")
		}
		reg, err := parseReg(rest[0])
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %v", rest[1], err)
		}
		if err := c.SetReg(o.connID, reg, v); err != nil {
			return err
		}
		fmt.Fprintf(w, "R%d = %d\n", reg+1, v)
		return nil
	case "gget":
		if len(rest) != 1 {
			return fmt.Errorf("gget <G1..G8|index>")
		}
		reg, err := parseGlobal(rest[0])
		if err != nil {
			return err
		}
		res, err := c.GGet(reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "G%d = %d (epoch %d)\n", res.Reg+1, res.Value, res.Epoch)
		return nil
	case "gset":
		if len(rest) != 2 {
			return fmt.Errorf("gset <G1..G8|index> <value>")
		}
		reg, err := parseGlobal(rest[0])
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %v", rest[1], err)
		}
		res, err := c.GSet(reg, v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "G%d = %d (epoch %d)\n", res.Reg+1, res.Value, res.Epoch)
		return nil
	case "deststats":
		res, err := c.DestStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "epoch %d, %d destination(s)\n", res.Epoch, len(res.Dests))
		for _, d := range res.Dests {
			fmt.Fprintf(w, "  %s\n", d)
		}
		return nil
	case "send":
		if len(rest) < 1 || len(rest) > 2 {
			return fmt.Errorf("send <bytes> [prop]")
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("bad byte count %q: %v", rest[0], err)
		}
		var prop int64
		if len(rest) == 2 {
			if prop, err = strconv.ParseInt(rest[1], 10, 64); err != nil {
				return fmt.Errorf("bad prop %q: %v", rest[1], err)
			}
		}
		if err := c.Send(o.connID, n, prop); err != nil {
			return err
		}
		fmt.Fprintf(w, "queued %d bytes (prop %d)\n", n, prop)
		return nil
	case "metrics":
		snap, err := c.Metrics()
		if err != nil {
			return err
		}
		fmt.Fprint(w, snap.Render())
		return nil
	case "metrics-agg":
		format := ""
		if len(rest) > 0 {
			format = rest[0]
		}
		switch format {
		case "text":
			res, err := c.MetricsAgg("text")
			if err != nil {
				return err
			}
			fmt.Fprint(w, res.Text)
		case "", "json":
			res, err := c.MetricsAgg("json")
			if err != nil {
				return err
			}
			buf, err := json.MarshalIndent(res.Snapshot, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(buf))
		default:
			return fmt.Errorf("metrics-agg: unknown format %q (json, text)", format)
		}
		return nil
	case "drain":
		if _, err := c.Drain(); err != nil {
			return err
		}
		fmt.Fprintln(w, "draining: server stops accepting, finishes inflight requests, then shuts down")
		return nil
	case "watch":
		return watch(c, o.connID, rest, w, stderr)
	case "top":
		if len(rest) > 1 {
			return fmt.Errorf("top [N]")
		}
		count := 0
		if len(rest) == 1 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return fmt.Errorf("bad refresh count %q (want N >= 0)", rest[0])
			}
			count = n
		}
		return top(c, count, w)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printDiags renders the analyzer's structured findings when a
// compile or swap was refused.
func printDiags(w io.Writer, err error) {
	var de *ctl.DiagError
	if !errors.As(err, &de) {
		return
	}
	for _, d := range de.Diags {
		fmt.Fprintf(w, "  %s\n", d)
	}
}

// programArgs resolves "<name|file> [backend]" for compile and swap: a
// built-in corpus name is passed by name, anything else is read as a
// source file and sent inline.
func programArgs(rest []string) (name, src, backend string, err error) {
	if len(rest) < 1 || len(rest) > 2 {
		return "", "", "", fmt.Errorf("want <name|file> [backend]")
	}
	if len(rest) == 2 {
		backend = rest[1]
	}
	if _, ok := progmp.Schedulers[rest[0]]; ok {
		return rest[0], "", backend, nil
	}
	data, err := os.ReadFile(rest[0])
	if err != nil {
		return "", "", "", fmt.Errorf("%q is neither a built-in scheduler nor a readable file: %v", rest[0], err)
	}
	name = strings.TrimSuffix(rest[0], ".progmp")
	return name, string(data), backend, nil
}

// parseReg accepts the language spelling (R1..R8) or a 0-based index.
func parseReg(s string) (int, error) {
	up := strings.ToUpper(s)
	if strings.HasPrefix(up, "R") {
		n, err := strconv.Atoi(up[1:])
		if err != nil || n < 1 || n > 8 {
			return 0, fmt.Errorf("bad register %q (want R1..R8)", s)
		}
		return n - 1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad register %q (want R1..R8 or an index)", s)
	}
	return n, nil
}

// parseGlobal accepts the language spelling (G1..G8) or a 0-based
// index for the shared-store global registers.
func parseGlobal(s string) (int, error) {
	up := strings.ToUpper(s)
	if strings.HasPrefix(up, "G") {
		n, err := strconv.Atoi(up[1:])
		if err != nil || n < 1 || n > progmp.NumSharedGlobals {
			return 0, fmt.Errorf("bad global register %q (want G1..G%d)", s, progmp.NumSharedGlobals)
		}
		return n - 1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad global register %q (want G1..G%d or an index)", s, progmp.NumSharedGlobals)
	}
	return n, nil
}

func printList(w io.Writer, res ctl.ListResult) {
	for _, ci := range res.Conns {
		sched := ci.Scheduler
		if ci.Backend != "" {
			sched += " (" + ci.Backend + ")"
		}
		if ci.Supervised {
			sched += " guarded:" + ci.GuardState
		}
		fmt.Fprintf(w, "conn %d %-10s sched=%s queued=%d unacked=%d allAcked=%v\n",
			ci.ID, ci.Name, sched, ci.QueuedSegs, ci.UnackedSegs, ci.AllAcked)
		var regs []string
		for i, v := range ci.Registers {
			if v != 0 {
				regs = append(regs, fmt.Sprintf("R%d=%d", i+1, v))
			}
		}
		if len(regs) > 0 {
			fmt.Fprintf(w, "  registers %s\n", strings.Join(regs, " "))
		}
		for _, sf := range ci.Subflows {
			state := "established"
			switch {
			case sf.Closed:
				state = "closed"
			case !sf.Established:
				state = "connecting"
			}
			if sf.Backup {
				state += ",backup"
			}
			fmt.Fprintf(w, "  %-8s %-18s srtt=%-8v cwnd=%-6.1f sent=%d pkts=%d retx=%d tput=%dB/s\n",
				sf.Name, state, time.Duration(sf.SRTTUS)*time.Microsecond,
				sf.Cwnd, sf.BytesSent, sf.PktsSent, sf.Retransmissions, sf.ThroughputBps)
		}
	}
}

// watch streams trace events as JSONL until interrupted. The stream is
// bound to the connection it was opened on; if that dies mid-watch the
// stream ends (rerun to resubscribe through a fresh connection).
func watch(c *ctl.Client, connID int, kinds []string, w, stderr io.Writer) error {
	stream, err := c.Subscribe(connID, kinds, 0)
	if err != nil {
		return err
	}
	defer stream.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				// Surface why the server ended the stream (e.g. this
				// subscriber was evicted for falling behind).
				return stream.Err()
			}
			if err := enc.Encode(ev); err != nil {
				return err
			}
		case <-sig:
			if n := stream.Dropped(); n > 0 {
				fmt.Fprintf(stderr, "progmpctl: %d events dropped\n", n)
			}
			return nil
		}
	}
}

// topInterval is the dashboard's refresh period.
const topInterval = time.Second

// top is a live fleet dashboard over the control plane: each frame
// shows the connection table (list verb) and the fleet-aggregated
// metrics (metrics-agg verb) — totals, hot-path latency quantiles,
// control-plane self-metrics. It draws count frames, or until
// interrupted when count is 0. Every verb it calls is read-only, so
// the client's retries carry it across reconnects.
func top(c *ctl.Client, count int, w io.Writer) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			select {
			case <-sig:
				return nil
			case <-time.After(topInterval):
			}
		}
		frame, err := topFrame(c)
		if err != nil {
			return err
		}
		if count != 1 {
			// Clear and home between refreshes; a single frame (top 1)
			// stays pipeable.
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		fmt.Fprint(w, frame)
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
