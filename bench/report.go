package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run as it is reported: the driver's four keys
// plus what identifies the run in an -out file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples map[string]int
	notes   []string
	spans   *spanRecorder
}

// runWorkload runs one catalogue workload and packages its outcome. A
// traced run of a simulation given probes spends half its budget on
// the workload's own passes and the rest on the two corpora and the
// layer probes, so its per-layer ledger is complete on its own.
func runWorkload(name string, cfg runConfig) (*result, error) {
	w := workloadByName(name)
	probes := cfg.probes && cfg.traced && w.Simulation
	own := cfg
	if probes {
		own.budget = cfg.budget / 2
	}
	out, err := w.run(own)
	if err != nil {
		return nil, err
	}
	if probes {
		if err := runLayers(cfg, cfg.budget/2, out); err != nil {
			return nil, err
		}
	}
	return newResult(name, cfg, out)
}

// newResult packages an outcome under a workload's name.
func newResult(name string, cfg runConfig, out *outcome) (*result, error) {
	res := &result{
		Workload: name, Seed: cfg.seed,
		Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{},
		samples: out.samples, notes: out.notes, spans: out.spans,
	}
	if cfg.traced {
		res.Trace = 1
	}
	for metric, v := range out.metrics {
		def := metricByName(metric)
		if def == nil {
			return nil, fmt.Errorf("%s reports %q, which the catalogue does not define", name, metric)
		}
		res.Metrics[metric] = metricValue{v, def.Unit}
	}
	for _, note := range out.notes {
		fmt.Fprintln(cfg.log, "bench: oracle:", note)
	}
	return res, nil
}

// runLayers measures the workload-independent part of the per-layer
// ledger — the two corpora and the layer probes — within budget, and
// merges it into out. Their oracle tallies merge too: a back-end
// disagreement found here fails the run like one found by the workload.
func runLayers(cfg runConfig, budget time.Duration, out *outcome) error {
	cfg.traced = true
	for _, part := range []struct {
		share float64
		run   func(runConfig) (*outcome, error)
	}{
		{0.3, runExecCorpus},
		{0.2, runLoadCorpus},
	} {
		cfg.budget = time.Duration(float64(budget) * part.share)
		sub, err := part.run(cfg)
		if err != nil {
			return err
		}
		for name, v := range sub.metrics {
			if _, own := out.metrics[name]; !own {
				out.set(name, v)
			}
		}
		out.count(sub.attempted, sub.failed, "%v", sub.notes)
	}
	cfg.budget = budget / 2
	return runProbes(cfg, out)
}

// ordered returns the result's metric names in catalogue order:
// end-to-end first.
func (r *result) ordered() []string {
	var names []string
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if _, ok := r.Metrics[m.Name]; ok {
				names = append(names, m.Name)
			}
		}
	}
	return names
}

// writeTable prints every metric by name with its unit.
func (r *result) writeTable(w io.Writer) {
	verdict := "correct"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "%s  seed %d  trace %d  %s: %d operations attempted, %d failed\n",
		r.Workload, r.Seed, r.Trace, verdict, r.Attempted, r.Failed)
	for _, name := range r.ordered() {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-26s %16.4f %-6s", name, m.Value, m.Unit)
		switch n, ok := r.samples[name]; {
		case ok && name == "delivery_p99_us":
			fmt.Fprintf(w, " (%d samples beyond)", n)
		case ok:
			fmt.Fprintf(w, " (%d samples)", n)
		}
		fmt.Fprintln(w)
	}
}

// writeDriverLine prints the one JSON object the driver reads: for a
// simulation workload exactly BENCHMARK.json's end-to-end metrics, or
// with -trace 1 exactly its per-layer metrics, where a layer the
// workload does not exercise reads 0. The corpus workloads are not
// driver workloads and print what they measured.
func (r *result) writeDriverLine(w io.Writer) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	if workloadByName(r.Workload).Simulation {
		defs := driverEndToEnd()
		if r.Trace == 1 {
			defs = driverPerLayer()
		}
		line.Metrics = map[string]metricValue{}
		for _, def := range defs {
			m, ok := r.Metrics[def.Name]
			if !ok && r.Trace == 0 {
				return fmt.Errorf("%s did not measure %s", r.Workload, def.Name)
			}
			line.Metrics[def.Name] = metricValue{m.Value, def.Unit}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(line)
}

// appendTo appends the result as one JSON line.
func (r *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads an -out file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// ---- Comparing two sets of runs ----

// cell is the runs of one (workload, metric) on one side.
type cell struct{ values []float64 }

func (c cell) median() float64 { return median(c.values) }

// spread is the distance between the first and third quartile as a
// share of the median (0 with fewer than two runs), with the quartiles
// Python's statistics.quantiles(values, n=4) gives.
func (c cell) spread() float64 {
	n := len(c.values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), c.values...)
	sort.Float64s(s)
	q := func(k int) float64 { // exclusive method: position k(n+1)/4
		pos := float64(k*(n+1)) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	if m := c.median(); m != 0 {
		return (q(3) - q(1)) / math.Abs(m)
	}
	return 0
}

// cells groups a set of results by workload and end-to-end metric.
func cells(results []result) map[string]map[string]*cell {
	out := map[string]map[string]*cell{}
	for _, r := range results {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*cell{}
		}
		for name, m := range r.Metrics {
			c := out[r.Workload][name]
			if c == nil {
				c = &cell{}
				out[r.Workload][name] = c
			}
			c.values = append(c.values, m.Value)
		}
	}
	return out
}

// verdict judges side b of one end-to-end cell against side a.
type verdict struct {
	worse      float64 // how much worse b's median is, as a share of a's; negative is better
	regressed  bool
	unresolved bool // the runs spread wider than the bound: the comparison decides nothing
}

// minSetup is the absolute slack on setup_s: a quarter of a few
// milliseconds is noise, not set-up work.
const minSetup = 0.05

func judge(def *metricDef, a, b cell) verdict {
	ma, mb := a.median(), b.median()
	var v verdict
	if ma != 0 {
		v.worse = (mb - ma) / math.Abs(ma)
		if def.Better == "higher" {
			v.worse = -v.worse
		}
	} else if mb != 0 {
		v.worse = math.Inf(1)
	}
	if def.Name == "setup_s" && math.Abs(mb-ma) < minSetup {
		return v
	}
	v.regressed = v.worse > def.Bound
	if s := math.Max(a.spread(), b.spread()); s > def.Bound {
		// Unless every run of b reads better than every run of a.
		v.unresolved = !allBetter(def, a, b)
		if v.unresolved {
			v.regressed = false
		}
	}
	return v
}

func allBetter(def *metricDef, a, b cell) bool {
	for _, x := range a.values {
		for _, y := range b.values {
			if (def.Better == "lower" && y >= x) || (def.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// writeComparison prints each (metric, workload) delta against its
// bound and returns the number of regressions.
func writeComparison(w io.Writer, a, b []result) int {
	ca, cb := cells(a), cells(b)
	regressions := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for i := range endToEnd {
			def := &endToEnd[i]
			x, y := ca[wl.Name][def.Name], cb[wl.Name][def.Name]
			if x == nil || y == nil {
				continue
			}
			v := judge(def, *x, *y)
			word := "ok"
			switch {
			case v.unresolved:
				word = "unresolved"
			case v.regressed:
				word = "REGRESSED"
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n", wl.Name, def.Name,
				x.median(), y.median(), 100*v.worse, 100*math.Max(x.spread(), y.spread()), 100*def.Bound, word)
		}
	}
	return regressions
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	if writeComparison(w, a, b) > 0 {
		return 1
	}
	return 0
}

// selfCheck runs two full sets of the same code back to back and fails
// if they disagree: wall-timed cells by more than their bound in
// either direction, virtual-time cells, counts and fail_ratio at all
// (the heap counts within their bound: the runtime allocates a little
// on its own).
func selfCheck(w io.Writer, cfg runConfig) int {
	var sets [2][]result
	for s := range sets {
		for _, name := range all {
			res, err := runWorkload(name, cfg)
			if err != nil {
				return fail(err)
			}
			res.writeTable(w)
			if !res.Correct {
				return 1
			}
			sets[s] = append(sets[s], *res)
		}
	}
	ca, cb := cells(sets[0]), cells(sets[1])
	status := 0
	for _, wl := range workloads {
		for i := range endToEnd {
			def := &endToEnd[i]
			x, y := ca[wl.Name][def.Name], cb[wl.Name][def.Name]
			if x == nil || y == nil {
				continue
			}
			limit := def.Bound
			if def.Clock == "virtual" || def.Name == "fail_ratio" {
				limit = 0
			}
			fwd, back := judge(def, *x, *y), judge(def, *y, *x)
			diff := math.Max(fwd.worse, back.worse)
			ok := diff <= limit || (def.Name == "setup_s" && math.Abs(x.median()-y.median()) < minSetup)
			word := "agree"
			if !ok {
				word = "DISAGREE"
				status = 1
			}
			fmt.Fprintf(w, "selfcheck %-16s %-20s %14.4f %14.4f differ %6.2f%% limit %4.0f%%  %s\n",
				wl.Name, def.Name, x.median(), y.median(), 100*diff, 100*limit, word)
		}
	}
	return status
}
