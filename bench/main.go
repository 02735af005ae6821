// Command bench is the layered ProgMP benchmark: seven workloads, every
// wall-timed number through the quiet-time estimator, correctness
// oracles behind the exit status, and a per-layer ledger measured from
// outside the program. See README.md in this directory.
//
//	go run -C bench .                              every workload, every metric
//	go run -C bench . -workload W -seed N -seconds S -trace 0|1
//	bash bench/run.sh -workload W ...              the same, built and run inside the checkout
//	go run -C bench . -list | -benchmark-json
//	go run -C bench . -selfcheck
//	go run -C bench . -compare A.jsonl B.jsonl
//
// With -workload the last line of standard output is the driver's JSON
// object; BENCHMARK.json at the repository root names run.sh, which builds
// this command under .bench_build/ and runs it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all seven)")
		seedText  = flag.String("seed", "7", "workload seed, any 64-bit integer: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "wall seconds of timed repetitions per workload")
		trace     = flag.Int("trace", 0, "1: the traced pass — spans, layer counts and layer probes — and the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to `file`")
		out       = flag.String("out", "", "append one JSON record per workload run to `file` (the input of -compare)")
		list      = flag.Bool("list", false, "print the workload and metric catalogue")
		benchJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the catalogue defines it")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets back to back and fail if they disagree beyond the bounds")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments: A.jsonl B.jsonl")
	)
	flag.Parse()
	seed, err := parseSeed(*seedText)
	if err != nil {
		return fail(err)
	}
	switch {
	case *list:
		writeList(os.Stdout)
		return 0
	case *benchJSON:
		if err := writeBenchmarkJSON(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	cfg := runConfig{
		seed:   seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace != 0,
		probes: *workload != "",
		size:   fullSize,
		log:    os.Stderr,
	}
	names := []string{*workload}
	if *workload == "" {
		names = all
	} else if workloadByName(*workload) == nil {
		return fail(fmt.Errorf("unknown workload %q (see -list)", *workload))
	}
	if *selfcheck {
		return selfCheck(os.Stdout, cfg)
	}

	status := 0
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			return fail(err)
		}
		res.writeTable(os.Stdout)
		if !res.Correct {
			status = 1
		}
		if *out != "" {
			if err := res.appendTo(*out); err != nil {
				return fail(err)
			}
		}
		if *traceOut != "" && res.spans != nil {
			if err := writeSpans(*traceOut, res.spans); err != nil {
				return fail(err)
			}
		}
		if *workload != "" {
			// The driver's line: every flat end-to-end metric, or with
			// -trace 1 every per-layer metric, and nothing else.
			if err := res.writeDriverLine(os.Stdout); err != nil {
				return fail(err)
			}
		}
	}
	if *workload == "" && cfg.traced {
		// The full report runs the layer probes once, not once per
		// simulation as a driver run has to.
		probed := newOutcome()
		if err := runProbes(cfg, probed); err != nil {
			return fail(err)
		}
		probed.count(1, 0, "")
		res, err := newResult("layer probes", cfg, probed)
		if err != nil {
			return fail(err)
		}
		res.writeTable(os.Stdout)
	}
	return status
}

// parseSeed takes any integer a caller may mean as 64 bits of seed:
// signed, or unsigned beyond the signed range, which wraps.
func parseSeed(text string) (int64, error) {
	if n, err := strconv.ParseInt(text, 0, 64); err == nil {
		return n, nil
	}
	u, err := strconv.ParseUint(text, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("-seed %q is not a 64-bit integer", text)
	}
	return int64(u), nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func writeSpans(path string, rec *spanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
