// Command progmpc is the ProgMP scheduler compiler front-end: it
// checks, formats and disassembles scheduler specifications, and lists
// the built-in corpus.
//
// Usage:
//
//	progmpc check  <file|builtin:NAME>        parse + type-check
//	progmpc fmt    <file|builtin:NAME>        print canonical formatting
//	progmpc disasm <file|builtin:NAME>        print bytecode disassembly
//	progmpc exec   <file|builtin:NAME> <env>  run one execution against a
//	                                          JSON environment and print
//	                                          the resulting actions
//	progmpc profile <file|builtin:NAME> <env> per-instruction execution
//	                                          counts for one run
//	progmpc bench  <file|builtin:NAME> [env]  time the scheduler on all
//	                                          three back-ends
//	progmpc env-example                       print a starter environment
//	progmpc list                              list built-in schedulers
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"progmp"
	"progmp/internal/core"
	"progmp/internal/envjson"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "progmpc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "list":
		names := make([]string, 0, len(progmp.Schedulers))
		for name := range progmp.Schedulers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Println(name)
		}
		return nil
	case "env-example":
		fmt.Print(envjson.Example())
		return nil
	case "profile":
		if len(args) != 3 {
			return usage()
		}
		src, err := load(args[1])
		if err != nil {
			return err
		}
		envData, err := os.ReadFile(args[2])
		if err != nil {
			return err
		}
		env, err := envjson.Parse(envData)
		if err != nil {
			return err
		}
		prog, err := lang.Parse(src)
		if err != nil {
			return err
		}
		info, err := types.Check(prog)
		if err != nil {
			return err
		}
		compiled, err := vm.Compile(info, vm.Options{SubflowCount: -1})
		if err != nil {
			return err
		}
		profile := vm.NewProfile(compiled)
		if err := profile.ExecProfile(env); err != nil {
			return err
		}
		fmt.Print(profile.Report())
		return nil
	case "exec":
		if len(args) != 3 {
			return usage()
		}
		src, err := load(args[1])
		if err != nil {
			return err
		}
		envData, err := os.ReadFile(args[2])
		if err != nil {
			return err
		}
		env, err := envjson.Parse(envData)
		if err != nil {
			return err
		}
		sched, err := core.Load(args[1], src, core.BackendVM)
		if err != nil {
			return err
		}
		before := *env.Regs
		sched.Exec(env)
		fmt.Print(envjson.FormatActions(env))
		for i := 0; i < runtime.NumRegisters; i++ {
			if env.Regs[i] != before[i] {
				fmt.Printf("R%d: %d -> %d\n", i+1, before[i], env.Regs[i])
			}
		}
		return nil
	case "bench":
		if len(args) < 2 || len(args) > 3 {
			return usage()
		}
		src, err := load(args[1])
		if err != nil {
			return err
		}
		var env *runtime.Env
		if len(args) == 3 {
			data, err := os.ReadFile(args[2])
			if err != nil {
				return err
			}
			if env, err = envjson.Parse(data); err != nil {
				return err
			}
		} else if env, err = envjson.Parse([]byte(envjson.Example())); err != nil {
			return err
		}
		return benchScheduler(args[1], src, env)
	case "check", "fmt", "disasm":
		if len(args) != 2 {
			return usage()
		}
		src, err := load(args[1])
		if err != nil {
			return err
		}
		switch args[0] {
		case "check":
			if err := progmp.CheckScheduler(src); err != nil {
				return err
			}
			fmt.Println("ok")
		case "fmt":
			out, err := progmp.FormatScheduler(src)
			if err != nil {
				return err
			}
			fmt.Print(out)
		case "disasm":
			out, err := progmp.Disassemble(src)
			if err != nil {
				return err
			}
			fmt.Print(out)
		}
		return nil
	default:
		return usage()
	}
}

func load(ref string) (string, error) {
	if name, ok := strings.CutPrefix(ref, "builtin:"); ok {
		src, ok := progmp.Schedulers[name]
		if !ok {
			return "", fmt.Errorf("unknown built-in scheduler %q (try `progmpc list`)", name)
		}
		return src, nil
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// benchScheduler times one scheduler across all three back-ends
// against the same environment snapshot.
func benchScheduler(name, src string, env *runtime.Env) error {
	const iters = 200000
	fmt.Printf("%-14s %12s\n", "backend", "ns/exec")
	for _, backend := range []core.Backend{core.BackendInterpreter, core.BackendCompiled, core.BackendVM} {
		s, err := core.Load(name, src, backend)
		if err != nil {
			return err
		}
		// Warm up (compiles the VM specialization).
		for i := 0; i < 1000; i++ {
			env.Reset()
			s.Exec(env)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			env.Reset()
			s.Exec(env)
		}
		fmt.Printf("%-14s %12.1f\n", backend, float64(time.Since(start).Nanoseconds())/iters)
	}
	return nil
}

func usage() error {
	return fmt.Errorf("usage: progmpc {check|fmt|disasm|bench} <file|builtin:NAME> | progmpc {exec|profile} <file|builtin:NAME> <env.json> | progmpc env-example | progmpc list")
}
