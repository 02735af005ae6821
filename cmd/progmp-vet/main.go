// Command progmp-vet lints ProgMP scheduler programs with the static
// analyzer (internal/analysis): the standalone face of the admission
// gate that core.Load and the ctl swap verb apply at runtime. A verb
// as the first argument runs one of the scheduler developer tools
// instead.
//
// Usage:
//
//	progmp-vet [flags] [target ...]
//	progmp-vet fmt     PROGRAM           print canonical formatting
//	progmp-vet disasm  PROGRAM           print the generic bytecode
//	progmp-vet exec    PROGRAM ENV.json  run one execution against a JSON
//	                                     environment; print the actions
//	                                     and register changes
//	progmp-vet profile PROGRAM ENV.json  per-instruction execution counts
//	                                     for one run
//	progmp-vet env-example               print a starter environment
//	progmp-vet list                      list the built-in schedulers
//
// Each target is a .progmp source file, a directory (searched
// recursively for *.progmp files), or builtin:NAME for a scheduler
// from the shipped corpus; a PROGRAM is a file or builtin:NAME. With
// -all, every built-in scheduler is linted in addition to the named
// targets.
//
//	-all    lint every built-in scheduler from the corpus
//	-json   machine-readable output (one JSON object per target)
//	-v      also show info-level diagnostics, step bounds and
//	        quiescence certificates
//
// Exit status: 0 when every target is clean (errors and warnings both
// count as findings; infos do not), 1 when any finding is reported or
// a verb fails, 2 on usage or I/O errors.
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
	"progmp/internal/core"
	"progmp/internal/envjson"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
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
	if len(args) > 0 {
		if v, ok := verbs[args[0]]; ok {
			if len(args)-1 != len(strings.Fields(v.operands)) {
				fmt.Fprintf(stderr, "usage: progmp-vet %s\n", strings.TrimSpace(args[0]+" "+v.operands))
				return 2
			}
			if err := v.run(args[1:], stdout); err != nil {
				fmt.Fprintf(stderr, "progmp-vet %s: %v\n", args[0], err)
				return 1
			}
			return 0
		}
	}
	fl := flag.NewFlagSet("progmp-vet", flag.ContinueOnError)
	fl.SetOutput(stderr)
	all := fl.Bool("all", false, "lint every built-in scheduler from the corpus")
	asJSON := fl.Bool("json", false, "machine-readable output")
	verbose := fl.Bool("v", false, "also show info-level diagnostics, step bounds and quiescence certificates")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: progmp-vet [flags] [file.progmp|dir|builtin:NAME ...]\n")
		fl.PrintDefaults()
		fmt.Fprintf(stderr, "       progmp-vet VERB ...; verbs:\n")
		for _, name := range sortedKeys(verbs) {
			fmt.Fprintf(stderr, "  %s\n", strings.TrimSpace(name+" "+verbs[name].operands))
		}
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
		for _, name := range sortedKeys(schedlib.All) {
			targets = append(targets, target{Name: "builtin:" + name, Src: schedlib.All[name]})
		}
	}
	for _, arg := range args {
		if info, err := os.Stat(arg); err == nil && info.IsDir() {
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
			continue
		}
		src, err := source(arg)
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{Name: arg, Src: src})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no .progmp files found")
	}
	return targets, nil
}

// source reads one program: builtin:NAME from the corpus, else a file.
func source(ref string) (string, error) {
	if name, ok := strings.CutPrefix(ref, "builtin:"); ok {
		src, ok := schedlib.All[name]
		if !ok {
			return "", fmt.Errorf("unknown built-in scheduler %q (try `progmp-vet list`)", name)
		}
		return src, nil
	}
	data, err := os.ReadFile(ref)
	return string(data), err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verbs are the scheduler developer tools: each takes its operands
// after the verb and prints to stdout.
var verbs = map[string]struct {
	operands string
	run      func(args []string, stdout io.Writer) error
}{
	"fmt":         {"PROGRAM", formatVerb},
	"disasm":      {"PROGRAM", disasmVerb},
	"exec":        {"PROGRAM ENV.json", execVerb},
	"profile":     {"PROGRAM ENV.json", profileVerb},
	"env-example": {"", func(_ []string, w io.Writer) error { _, err := io.WriteString(w, envjson.Example()); return err }},
	"list": {"", func(_ []string, w io.Writer) error {
		_, err := io.WriteString(w, strings.Join(sortedKeys(schedlib.All), "\n")+"\n")
		return err
	}},
}

func formatVerb(args []string, w io.Writer) error {
	src, err := source(args[0])
	if err != nil {
		return err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, prog.Format())
	return err
}

// generic compiles a program to its generic (unspecialized) bytecode.
func generic(ref string) (*vm.Program, error) {
	src, err := source(ref)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, err
	}
	return vm.Compile(info, vm.Options{SubflowCount: -1})
}

func disasmVerb(args []string, w io.Writer) error {
	p, err := generic(args[0])
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, p.Disassemble())
	return err
}

func readEnv(path string) (*runtime.Env, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return envjson.Parse(data)
}

func execVerb(args []string, w io.Writer) error {
	src, err := source(args[0])
	if err != nil {
		return err
	}
	env, err := readEnv(args[1])
	if err != nil {
		return err
	}
	sched, err := core.Load(args[0], src, core.BackendVM)
	if err != nil {
		return err
	}
	before := *env.Regs
	sched.Exec(env)
	fmt.Fprint(w, envjson.FormatActions(env))
	for i, v := range before {
		if env.Regs[i] != v {
			fmt.Fprintf(w, "R%d: %d -> %d\n", i+1, v, env.Regs[i])
		}
	}
	return nil
}

// profileVerb runs vm.Program.Exec on an instrumented copy of the
// generic program, so its decisions are execVerb's.
func profileVerb(args []string, w io.Writer) error {
	p, err := generic(args[0])
	if err != nil {
		return err
	}
	env, err := readEnv(args[1])
	if err != nil {
		return err
	}
	profile := vm.NewProfile(p)
	if err := profile.ExecProfile(env); err != nil {
		return err
	}
	_, err = io.WriteString(w, profile.Report())
	return err
}
