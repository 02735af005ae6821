package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"progmp/internal/analysis"
)

func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestBuiltinClean(t *testing.T) {
	code, stdout, stderr := runVet(t, "builtin:minRTT")
	if code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("expected silence for a clean target, got %q", stdout)
	}
}

func TestVerbosePrintsCertificate(t *testing.T) {
	_, stdout, _ := runVet(t, "-v", "builtin:jointFlow", "builtin:roundRobin")
	for _, want := range []string{
		"builtin:jointFlow: quiescent when none(avail) ∨ (Q.EMPTY ∧ RQ.EMPTY)\n",
		"builtin:roundRobin: quiescent when never\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-v output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestAllBuiltinsClean(t *testing.T) {
	code, stdout, stderr := runVet(t, "-all")
	if code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

func TestBuggyFileFindings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "buggy.progmp")
	// Never pushes and scans a guaranteed-false filter.
	src := "VAR none = SUBFLOWS.FILTER(s => 1 > 2);\nIF (!none.EMPTY) {\n    SET(R1, 1);\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runVet(t, path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout %q", code, stdout)
	}
	for _, rule := range []string{"[no-push]", "[false-filter]"} {
		if !strings.Contains(stdout, rule) {
			t.Errorf("output missing %s:\n%s", rule, stdout)
		}
	}
	if !strings.Contains(stdout, path+":") {
		t.Errorf("diagnostics not prefixed with the file path:\n%s", stdout)
	}
	if !strings.Contains(stdout, "finding(s)") {
		t.Errorf("missing summary line:\n%s", stdout)
	}
}

func TestDirectoryWalk(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "nested")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	clean := "SUBFLOWS.MIN(s => s.RTT).PUSH(RQ.POP());\n"
	buggy := "SET(R1, 1 / 0);\nSUBFLOWS.MIN(s => s.RTT).PUSH(RQ.POP());\n"
	if err := os.WriteFile(filepath.Join(dir, "clean.progmp"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "buggy.progmp"), []byte(buggy), 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-.progmp file must be skipped, not parsed.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runVet(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout %q", code, stdout)
	}
	if !strings.Contains(stdout, "[div-zero]") {
		t.Errorf("missing div-zero finding from nested file:\n%s", stdout)
	}
	if strings.Contains(stdout, "clean.progmp:") && !strings.Contains(stdout, "across 2 program(s)") {
		t.Errorf("clean file should produce no diagnostics:\n%s", stdout)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warn.progmp")
	if err := os.WriteFile(path, []byte("SET(R1, R1 + 1);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runVet(t, "-json", "builtin:minRTT", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var results []result
	if err := json.Unmarshal([]byte(stdout), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Target != "builtin:minRTT" || results[0].Report.Warnings() != 0 {
		t.Errorf("minRTT report: %+v", results[0])
	}
	if results[1].Report.Warnings() == 0 {
		t.Errorf("warn.progmp should carry warnings: %+v", results[1].Report)
	}
	found := false
	for _, d := range results[1].Report.Diagnostics {
		if d.Rule == analysis.RuleNoPush {
			found = true
		}
	}
	if !found {
		t.Errorf("no-push missing from JSON diagnostics: %+v", results[1].Report.Diagnostics)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runVet(t, "builtin:nope"); code != 2 {
		t.Errorf("unknown builtin: exit %d, want 2", code)
	}
	if code, _, _ := runVet(t, "/nonexistent/path.progmp"); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code, _, stderr := runVet(t); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no targets: exit %d, stderr %q; want 2 with usage", code, stderr)
	}
}

func TestExamplesShipClean(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "schedulers")
	if _, err := os.Stat(dir); err != nil {
		t.Skip("examples not present")
	}
	code, stdout, stderr := runVet(t, dir)
	if code != 0 {
		t.Fatalf("shipped examples must vet clean: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}
