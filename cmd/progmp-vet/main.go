// Command progmp-vet lints ProgMP scheduler programs with the static
// analyzer (internal/analysis): the standalone face of the admission
// gate that core.Load and the ctl swap verb apply at runtime.
//
// Usage:
//
//	progmp-vet [flags] [target ...]
//
// Each target is a .progmp source file, a directory (searched
// recursively for *.progmp files), or builtin:NAME for a scheduler
// from the shipped corpus. With -all, every built-in scheduler is
// linted in addition to the named targets.
//
//	-all    lint every built-in scheduler from the corpus
//	-json   machine-readable output (one JSON object per target)
//	-v      also show info-level diagnostics, step bounds and
//	        quiescence certificates
//
// Exit status: 0 when every target is clean (errors and warnings both
// count as findings; infos do not), 1 when any finding is reported,
// 2 on usage or I/O errors.
//
// Diagnostics print in compiler form — file:line:col: severity:
// message [rule-id] — and can be suppressed in source with a
// `//vet:ignore rule-id` comment on or above the offending line. The
// rule catalogue is documented in docs/ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"progmp/internal/analysis"
	"progmp/internal/schedlib"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// target is one program to lint: a display name and its source.
type target struct {
	Name string
	Src  string
}

// result pairs a target with its report and its quiescence
// certificate for -json output.
type result struct {
	Target     string           `json:"target"`
	Report     *analysis.Report `json:"report"`
	Quiescence string           `json:"quiescence,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("progmp-vet", flag.ContinueOnError)
	fl.SetOutput(stderr)
	all := fl.Bool("all", false, "lint every built-in scheduler from the corpus")
	asJSON := fl.Bool("json", false, "machine-readable output")
	verbose := fl.Bool("v", false, "also show info-level diagnostics, step bounds and quiescence certificates")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: progmp-vet [flags] [file.progmp|dir|builtin:NAME ...]\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() == 0 && !*all {
		fl.Usage()
		return 2
	}

	targets, err := collectTargets(fl.Args(), *all)
	if err != nil {
		fmt.Fprintf(stderr, "progmp-vet: %v\n", err)
		return 2
	}

	findings := 0
	var results []result
	for _, tgt := range targets {
		rep := analysis.AnalyzeSource(tgt.Src, analysis.Options{})
		findings += rep.Errors() + rep.Warnings()
		if *asJSON {
			results = append(results, result{Target: tgt.Name, Report: rep, Quiescence: rep.Quiescence.String()})
			continue
		}
		for _, d := range rep.Diagnostics {
			if d.Severity == analysis.SevInfo && !*verbose {
				continue
			}
			fmt.Fprintf(stdout, "%s:%s\n", tgt.Name, d)
		}
		if *verbose {
			fmt.Fprintf(stdout, "%s: step bound %s (%d steps at reference size)\n",
				tgt.Name, rep.StepBound, rep.StepBoundAt)
			fmt.Fprintf(stdout, "%s: quiescent when %s\n", tgt.Name, rep.Quiescence.String())
			if rep.Suppressed > 0 {
				fmt.Fprintf(stdout, "%s: %d diagnostic(s) suppressed\n", tgt.Name, rep.Suppressed)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "progmp-vet: %v\n", err)
			return 2
		}
	}
	if findings > 0 {
		if !*asJSON {
			fmt.Fprintf(stdout, "progmp-vet: %d finding(s) across %d program(s)\n", findings, len(targets))
		}
		return 1
	}
	return 0
}

// collectTargets expands CLI arguments into lintable programs.
func collectTargets(args []string, all bool) ([]target, error) {
	var targets []target
	if all {
		names := make([]string, 0, len(schedlib.All))
		for name := range schedlib.All {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			targets = append(targets, target{Name: "builtin:" + name, Src: schedlib.All[name]})
		}
	}
	for _, arg := range args {
		switch {
		case strings.HasPrefix(arg, "builtin:"):
			name := strings.TrimPrefix(arg, "builtin:")
			src, ok := schedlib.All[name]
			if !ok {
				return nil, fmt.Errorf("unknown built-in scheduler %q", name)
			}
			targets = append(targets, target{Name: arg, Src: src})
		default:
			info, err := os.Stat(arg)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				src, err := os.ReadFile(arg)
				if err != nil {
					return nil, err
				}
				targets = append(targets, target{Name: arg, Src: string(src)})
				continue
			}
			err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() || !strings.HasSuffix(path, ".progmp") {
					return nil
				}
				src, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				targets = append(targets, target{Name: path, Src: string(src)})
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no .progmp files found")
	}
	return targets, nil
}
