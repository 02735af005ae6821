// Command progmp-experiments regenerates the paper's evaluation: one
// markdown table per section (DESIGN.md §3 indexes them), followed by
// one line per paper claim that the section judges. A section whose
// experiment draws randomness runs at K seeds from -seed and prints
// each number as `median [min–max]`; the others run once.
// EXPERIMENTS.md holds every virtual-time section between marker
// comments, and TestEvaluationGolden pins each block to this command's
// output at the default -seed and fails when a claim holds at fewer
// seeds than its floor (`go test ./cmd/progmp-experiments -run
// TestEvaluationGolden -update` rewrites the blocks). Performance is
// measured by the layered benchmark in bench/ (BENCHMARK.json,
// bench/README.md), not here.
//
// Usage:
//
//	progmp-experiments -exp all
//	progmp-experiments -exp fig10c -seed 21
//
// Experiments: fig1 (or fig13), fig9, fig9tp, fig10b, fig10c, fig12,
// fig14, upcall, memory, receiver, handover, opportunistic, fairness,
// probing, targetrtt, ablations, chaos, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc comment)")
	seed := flag.Int64("seed", 1, "first seed of the ensemble of a section that draws randomness")
	flag.Parse()
	if err := run(os.Stdout, *exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "progmp-experiments:", err)
		os.Exit(1)
	}
}

// K is the size of a seed ensemble.
const K = 20

// A section is one table of the evaluation. judge runs it at k seeds
// from base, or once if its experiment draws no randomness (see seeded
// and once). wall marks a section that reports wall time, which
// differs on every machine, so no golden pins it. An id that joins ids
// with "+" answers to each of them.
type section struct {
	id, title string
	wall      bool
	judge     func(base int64, k int) (judged, error)
}

// run writes experiment exp ("all" for every one) with ensembles from
// seed to w.
func run(w io.Writer, exp string, seed int64) error {
	found := false
	for _, s := range sections {
		if exp != "all" && !slices.Contains(strings.Split(s.id, "+"), exp) {
			continue
		}
		found = true
		j, err := s.judge(seed, K)
		if err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		fmt.Fprintf(w, "\n## %s — %s\n\n%s", s.id, s.title, j)
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// A claim is one statement of the paper about a section, judged on
// one run's typed results. floor is the number of runs it must hold
// at: what it held at when it was written here, so a change that
// breaks it fails TestEvaluationGolden.
type claim[R any] struct {
	name  string
	floor int
	says  string
	holds func(R) bool
}

// A cell is a label, printed as is, or a number and its format.
type cell struct {
	label  string
	value  float64
	format func(float64) string
}

func text(s string) cell { return cell{label: s} }

// num is a number printed with a fmt layout.
func num(layout string, v float64) cell {
	return cell{value: v, format: func(v float64) string { return fmt.Sprintf(layout, v) }}
}

// judged is a section's table and its claims' verdicts. seeds is the
// ensemble's size, 0 for a section that runs once.
type judged struct {
	header   []string
	rows     [][]string
	verdicts []verdict
	seeds    int
}

type verdict struct {
	name, says   string
	holds, floor int
}

// seeded makes the judge of an experiment that draws randomness: it
// runs at seeds base … base+k−1, each claim counts the seeds it holds
// at, and each number prints as `median [min–max]` over the seeds.
func seeded[R any](exp func(seed int64) (R, error), header []string, rows func(R) [][]cell, claims ...claim[R]) func(int64, int) (judged, error) {
	return func(base int64, k int) (judged, error) {
		runs := make([]R, k)
		for i := range runs {
			var err error
			if runs[i], err = exp(base + int64(i)); err != nil {
				return judged{}, fmt.Errorf("seed %d: %w", base+int64(i), err)
			}
		}
		return judge(runs, k, header, rows, claims), nil
	}
}

// once makes the judge of an experiment that draws no randomness: it
// runs once, whatever the seed.
func once[R any](exp func() (R, error), header []string, rows func(R) [][]cell, claims ...claim[R]) func(int64, int) (judged, error) {
	return func(int64, int) (judged, error) {
		r, err := exp()
		if err != nil {
			return judged{}, err
		}
		return judge([]R{r}, 0, header, rows, claims), nil
	}
}

// judge tabulates runs (one per seed, or the one run when seeds is 0)
// and counts the runs each claim holds at. A section's rows and labels
// come from its experiment's fixed inputs, so every run lays its cells
// out alike.
func judge[R any](runs []R, seeds int, header []string, rows func(R) [][]cell, claims []claim[R]) judged {
	j := judged{header: header, seeds: seeds}
	for _, c := range claims {
		v := verdict{name: c.name, says: c.says, floor: c.floor}
		for _, r := range runs {
			if c.holds(r) {
				v.holds++
			}
		}
		j.verdicts = append(j.verdicts, v)
	}
	cells := make([][][]cell, len(runs))
	for i, r := range runs {
		cells[i] = rows(r)
	}
	for ri, row := range cells[0] {
		out := make([]string, len(row))
		for ci, c := range row {
			values := make([]float64, len(runs))
			for i := range runs {
				values[i] = cells[i][ri][ci].value
			}
			out[ci] = c.render(values, seeds > 0)
		}
		j.rows = append(j.rows, out)
	}
	return j
}

// render prints a label, or a number: its one value, or over an
// ensemble `median [min–max]`.
func (c cell) render(values []float64, ensemble bool) string {
	if c.format == nil {
		return c.label
	}
	if !ensemble {
		return c.format(values[0])
	}
	slices.Sort(values)
	n := len(values)
	median := (values[(n-1)/2] + values[n/2]) / 2
	return fmt.Sprintf("%s [%s–%s]", c.format(median), c.format(values[0]), c.format(values[n-1]))
}

// String renders the markdown table and one line per claim.
func (j judged) String() string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(j.header)
	b.WriteString(strings.Repeat("|---", len(j.header)) + "|\n")
	for _, row := range j.rows {
		line(row)
	}
	if len(j.verdicts) > 0 {
		b.WriteString("\n")
	}
	for _, v := range j.verdicts {
		fmt.Fprintf(&b, "- claim %s: %s — %s\n", v.name, v.count(j.seeds), v.says)
	}
	return b.String()
}

// count says how many runs the claim held at.
func (v verdict) count(seeds int) string {
	switch {
	case seeds > 0:
		return fmt.Sprintf("holds at %d/%d seeds", v.holds, seeds)
	case v.holds == 1:
		return "holds (deterministic)"
	default:
		return "fails (deterministic)"
	}
}
