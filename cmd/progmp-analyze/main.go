// Command progmp-analyze runs the repository's type-aware invariant
// passes (tools/analyze) over Go packages: the Go-side counterpart of
// progmp-vet. Where progmp-vet gates scheduler programs, this gates
// the engine underneath them — hot-path allocation freedom,
// deterministic-zone hygiene, shared-state write sections, and the obs
// conventions.
//
// Usage:
//
//	go run ./cmd/progmp-analyze ./...
//	go run ./cmd/progmp-analyze -passes hotpath,deterministic internal/fleet
//	go run ./cmd/progmp-analyze -list
//
// Each argument is a directory, a dir/... pattern, or an import path
// below module progmp. Exit status is 1 when any diagnostic is
// reported, 2 on usage, load, or type-check errors. Directive syntax
// and the pass catalogue are documented in docs/ANALYSIS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"progmp/tools/analyze"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flags := flag.NewFlagSet("progmp-analyze", flag.ContinueOnError)
	list := flags.Bool("list", false, "print the pass catalogue and exit")
	passes := flags.String("passes", "", "comma-separated subset of passes to run (default: all)")
	verbose := flags.Bool("v", false, "log loaded packages")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyze.Analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var selected []*analyze.Analyzer
	if *passes != "" {
		for _, name := range strings.Split(*passes, ",") {
			a := analyze.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "progmp-analyze: unknown pass %q (see -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	suite, err := analyze.NewSuite(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "progmp-analyze: %v\n", err)
		return 2
	}
	pkgs, err := suite.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "progmp-analyze: %v\n", err)
		return 2
	}
	if *verbose {
		for _, pkg := range pkgs {
			fmt.Fprintf(os.Stderr, "progmp-analyze: loaded %s (%d files)\n", pkg.Path, len(pkg.Files))
		}
	}
	diags := suite.Run(pkgs, selected)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "progmp-analyze: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
