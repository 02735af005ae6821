package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root is the catalogue's view for the
// driver; regenerate it with `go run -C bench . -benchmark-json`.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBenchmarkJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Errorf("BENCHMARK.json has drifted from the catalogue; want:\n%s", buf.String())
	}
}

// The limits the driver refuses a BENCHMARK.json for.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	f := benchmarkJSON()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range f.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s does not have the largest bound: %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s in s, lower")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range f.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}

// -list prints what the code defines: every workload and metric by name.
func TestListNamesEverything(t *testing.T) {
	var buf bytes.Buffer
	writeList(&buf)
	for _, w := range workloads {
		if !strings.Contains(buf.String(), w.Name) {
			t.Errorf("-list omits workload %s", w.Name)
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !strings.Contains(buf.String(), m.Name) {
				t.Errorf("-list omits metric %s", m.Name)
			}
			for _, w := range m.Workloads {
				if workloadByName(w) == nil {
					t.Errorf("%s is reported on unknown workload %s", m.Name, w)
				}
			}
		}
	}
}

// The README's catalogue tables are written by hand; they must at least
// name everything the code does.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !bytes.Contains(data, []byte("`"+w.Name+"`")) {
			t.Errorf("README.md omits workload %s", w.Name)
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !bytes.Contains(data, []byte("`"+m.Name+"`")) {
				t.Errorf("README.md omits metric %s", m.Name)
			}
		}
	}
}
