// Command progmp-trace reads a recorded JSONL decision trace and
// renders it, so that every transmitted packet's subflow choice is
// attributable to the scheduler execution — and the decision site
// inside the scheduler program — that produced it. It reads the file
// named by its one argument, or stdin without one; `mpsim -trace FILE`
// records a run and `progmpctl watch` streams a live one.
//
// Example:
//
//	mpsim -scheduler redundant -send 262144 -trace t.jsonl
//	progmp-trace -format summary t.jsonl
//	progmp-trace -format chrome -o trace.json t.jsonl
//	progmpctl -s /tmp/mpsim.sock watch | progmp-trace -kinds PUSH,DROP
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
	"sort"
	"strings"

	"progmp/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 done, 1
// the trace could not be read or written, 2 the command line was
// refused.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("progmp-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "jsonl", "output format: jsonl, chrome, summary")
	file := fs.String("o", "", "output file (default stdout)")
	kinds := fs.String("kinds", "", "comma-separated event kinds to keep (e.g. PUSH,DROP); empty keeps all")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: progmp-trace [-format jsonl|chrome|summary] [-kinds K,...] [-o FILE] [TRACE]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fs.Usage()
		return 2
	}
	if err := render(fs.Arg(0), *format, *kinds, *file, stdin, stdout); err != nil {
		fmt.Fprintln(stderr, "progmp-trace:", err)
		return 1
	}
	return 0
}

// render reads the trace (stdin when trace is ""), keeps the listed
// kinds and writes it in format to file (stdout when file is "").
func render(trace, format, kinds, file string, stdin io.Reader, stdout io.Writer) error {
	in := stdin
	if trace != "" {
		f, err := os.Open(trace)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	events, err := obs.ReadJSONL(in)
	if err != nil {
		if trace != "" {
			err = fmt.Errorf("%s: %w", trace, err)
		}
		return err
	}
	if kinds != "" {
		if events, err = filterKinds(events, kinds); err != nil {
			return err
		}
	}
	if file == "" {
		return emit(stdout, format, events)
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := emit(f, format, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// filterKinds keeps only events whose kind is in the comma-separated
// list.
func filterKinds(events []obs.Event, kinds string) ([]obs.Event, error) {
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
	var out []obs.Event
	for _, ev := range events {
		if keep[ev.Kind] {
			out = append(out, ev)
		}
	}
	return out, nil
}

func emit(w io.Writer, format string, events []obs.Event) error {
	switch format {
	case "jsonl":
		return obs.WriteJSONL(w, events)
	case "chrome":
		return obs.WriteChromeTrace(w, events)
	case "summary":
		return writeSummary(w, events)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// writeSummary renders per-kind counts, per-subflow pushes and the
// attribution statistics: how many transmissions trace back to a
// scheduler execution event in the trace. A file does not know how
// many events its recorder's ring overwrote; mpsim prints that count
// when it writes the file.
func writeSummary(w io.Writer, events []obs.Event) error {
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
	fmt.Fprintf(w, "events %d\n", len(events))
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
