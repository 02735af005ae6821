package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/evaluation.golden from this run")

// deterministicSections are the experiments whose output depends only
// on the seed: every section of -exp all except fig9 and upcall, which
// report wall time. "fig1" runs the combined fig1+fig13 section.
var deterministicSections = []string{
	"fig1", "fig9tp", "fig10b", "fig10c", "fig12", "fig14", "memory",
	"receiver", "handover", "opportunistic", "fairness", "probing", "targetrtt",
	"ablations",
}

// TestEvaluationGolden pins the paper's evaluation: the deterministic
// sections of `progmp-experiments -exp all -seed 7`, in that order,
// byte for byte. Regenerate with `go test -run TestEvaluationGolden
// -update`; a change that moves a number says why in CHANGES.md.
func TestEvaluationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every deterministic experiment")
	}
	var got bytes.Buffer
	for _, id := range deterministicSections {
		if err := run(&got, id, 7); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	golden := filepath.Join("testdata", "evaluation.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("evaluation drifted from %s (rerun with -update if intended):\n%s", golden, firstDiff(want, got.Bytes()))
	}
}

// firstDiff renders the first line where got departs from want.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d\nwant %q\n got %q", i+1, wl, gl)
		}
	}
	return "(equal)"
}
