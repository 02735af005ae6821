package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's evaluation blocks from this run")

// experimentsMD is the document whose blocks are the golden.
var experimentsMD = filepath.Join("..", "..", "EXPERIMENTS.md")

// TestEvaluationGolden pins the paper's evaluation: every section of
// `progmp-experiments -exp all -seed 7` that is not wall time, byte
// for byte, against its block in EXPERIMENTS.md. Regenerate with `go
// test -run TestEvaluationGolden -update`, which rewrites the blocks
// and nothing else; a change that moves a number says why in
// CHANGES.md.
func TestEvaluationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every deterministic experiment")
	}
	tables := map[string]string{}
	for _, s := range sections {
		if s.wall {
			continue
		}
		table, err := s.table(7)
		if err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		tables[s.id] = table
	}
	doc, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	got, err := splice(doc, tables)
	if err != nil {
		t.Fatalf("%s: %v", experimentsMD, err)
	}
	if *update {
		if err := os.WriteFile(experimentsMD, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, doc) {
		t.Errorf("evaluation drifted from %s (rerun with -update if intended):\n%s", experimentsMD, firstDiff(doc, got))
	}
}

// splice returns doc with each evaluation block replaced by its
// section's table. A block runs from a line "<!-- begin ID..." to the
// line "<!-- end ID -->"; its markers are rewritten too, so the begin
// marker always names the command that prints the table. Every id of
// tables needs exactly one block, and every block a table.
func splice(doc []byte, tables map[string]string) ([]byte, error) {
	var out bytes.Buffer
	seen := map[string]bool{}
	lines := strings.SplitAfter(string(doc), "\n")
	for i := 0; i < len(lines); i++ {
		rest, ok := strings.CutPrefix(lines[i], "<!-- begin ")
		if !ok {
			out.WriteString(lines[i])
			continue
		}
		id, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		id = strings.TrimSuffix(id, ":")
		table, known := tables[id]
		switch {
		case !known:
			return nil, fmt.Errorf("line %d: block names unknown section %q", i+1, id)
		case seen[id]:
			return nil, fmt.Errorf("line %d: second block for section %q", i+1, id)
		}
		seen[id] = true
		end := i + 1
		for end < len(lines) && strings.TrimSpace(lines[end]) != endMarker(id) {
			if strings.HasPrefix(lines[end], "<!-- begin ") {
				end = len(lines)
				break
			}
			end++
		}
		if end == len(lines) {
			return nil, fmt.Errorf("line %d: block %q has no %s", i+1, id, endMarker(id))
		}
		fmt.Fprintf(&out, "<!-- begin %s: go run ./cmd/progmp-experiments -exp %s -seed 7 -->\n%s%s\n",
			id, strings.Split(id, "+")[0], table, endMarker(id))
		i = end
	}
	for id := range tables {
		if !seen[id] {
			return nil, fmt.Errorf("no block for section %q", id)
		}
	}
	return out.Bytes(), nil
}

func endMarker(id string) string { return "<!-- end " + id + " -->" }

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

// spliceDoc has two stale blocks amid text that looks like markers but
// is not: a marker mid-line, an end marker outside any block, and no
// final newline.
const spliceDoc = `# title
text naming <!-- begin a --> mid-line
<!-- begin a: stale command -->
| old |
<!-- end a -->
between
<!-- end b -->
<!-- begin b+c -->
<!-- end b+c -->
tail without newline`

var spliceTables = map[string]string{"a": "| x |\n|---|\n| 1 |\n", "b+c": "| y |\n|---|\n"}

func TestSpliceTouchesOnlyBlocks(t *testing.T) {
	got, err := splice([]byte(spliceDoc), spliceTables)
	if err != nil {
		t.Fatal(err)
	}
	want := `# title
text naming <!-- begin a --> mid-line
<!-- begin a: go run ./cmd/progmp-experiments -exp a -seed 7 -->
| x |
|---|
| 1 |
<!-- end a -->
between
<!-- end b -->
<!-- begin b+c: go run ./cmd/progmp-experiments -exp b -seed 7 -->
| y |
|---|
<!-- end b+c -->
tail without newline`
	if string(got) != want {
		t.Errorf("splice:\n%s\nwant:\n%s", got, want)
	}
}

// TestSpliceIsIdempotent: a second -update leaves the document
// byte-identical.
func TestSpliceIsIdempotent(t *testing.T) {
	once, err := splice([]byte(spliceDoc), spliceTables)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := splice(once, spliceTables)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Errorf("second splice changed the document:\n%s", firstDiff(once, twice))
	}
}

func TestSpliceRefusesBadBlocks(t *testing.T) {
	block := func(id string) string { return "<!-- begin " + id + " -->\n" + endMarker(id) + "\n" }
	tables := map[string]string{"a": "| x |\n", "b": "| y |\n"}
	for _, tc := range []struct{ name, doc, want string }{
		{"missing", block("a"), `no block for section "b"`},
		{"duplicate", block("a") + block("b") + block("a"), `second block for section "a"`},
		{"unknown", block("a") + block("b") + block("z"), `unknown section "z"`},
		{"unterminated", "<!-- begin a -->\n| x |\n" + block("b"), `block "a" has no <!-- end a -->`},
	} {
		if _, err := splice([]byte(tc.doc), tables); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestExperimentIDs: an id joined into a section's id selects that
// section alone, and an unknown id is refused.
func TestExperimentIDs(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "fig13", 7); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n## "); got != 1 || !strings.HasPrefix(out.String(), "\n## fig1+fig13 — ") {
		t.Errorf("-exp fig13 printed %d sections:\n%s", got, out.String())
	}
	if err := run(&out, "fig", 7); err == nil {
		t.Error("-exp fig was accepted")
	}
}
