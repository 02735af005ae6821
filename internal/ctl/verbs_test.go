package ctl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestVerbTable checks every row against what docs/CONTROL.md promises:
// which verbs the retry layer replays, which stay answerable while the
// server drains, and that each verb has a handler and a deadline.
func TestVerbTable(t *testing.T) {
	want := map[string]struct{ idempotent, always bool }{
		VerbPing:        {idempotent: true, always: true},
		VerbList:        {idempotent: true},
		VerbSchedulers:  {idempotent: true},
		VerbCompile:     {idempotent: true}, // verifies without installing
		VerbSwap:        {},
		VerbGetReg:      {idempotent: true},
		VerbSetReg:      {},
		VerbSend:        {},
		VerbMetrics:     {idempotent: true},
		VerbMetricsAgg:  {idempotent: true},
		VerbSubscribe:   {},
		VerbUnsubscribe: {always: true},
		VerbDrain:       {always: true},
		VerbGGet:        {idempotent: true},
		VerbGSet:        {}, // a blind replay could clobber a concurrent scheduler GSET
		VerbDestStats:   {idempotent: true},
	}
	consts := verbConstants(t)
	if len(consts) != len(want) || len(verbTable) != len(want) {
		t.Fatalf("%d Verb constants, %d rows, %d expectations: add the row and the expectation with the constant",
			len(consts), len(verbTable), len(want))
	}
	for _, v := range consts {
		w, ok := want[v]
		if !ok {
			t.Fatalf("verb %q has no expectation here", v)
		}
		row, ok := verbTable[v]
		switch {
		case !ok || row.serve == nil:
			t.Errorf("verb %q has no row with a handler", v)
		case IdempotentVerb(v) != w.idempotent:
			t.Errorf("IdempotentVerb(%q) = %v, want %v", v, !w.idempotent, w.idempotent)
		case row.always != w.always:
			t.Errorf("verb %q always = %v, want %v", v, row.always, w.always)
		case (row.timeout > 0) != (v != VerbSubscribe):
			t.Errorf("verb %q timeout = %v: every verb but subscribe has its own deadline", v, row.timeout)
		}
	}
}

// verbConstants returns the values of the Verb* constants declared in
// protocol.go.
func verbConstants(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Verb") {
					continue
				}
				v, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// CallTimeout, when set, bounds every verb; unset, each verb's row
// decides; negative means no deadline at all.
func TestCallTimeoutOverridesEveryVerb(t *testing.T) {
	for _, tc := range []struct {
		call time.Duration
		want map[string]time.Duration
	}{
		{5 * time.Second, map[string]time.Duration{VerbPing: 5 * time.Second, VerbCompile: 5 * time.Second, VerbSwap: 5 * time.Second}},
		{0, map[string]time.Duration{VerbPing: 2 * time.Second, VerbCompile: 10 * time.Second, VerbSwap: 10 * time.Second,
			VerbSubscribe: DefaultCallTimeout}},
		{-1, map[string]time.Duration{VerbPing: 0, VerbCompile: 0, VerbSwap: 0}},
	} {
		r := DialRetry(RetryOptions{Network: "unix", Addr: "unused", CallTimeout: tc.call})
		for verb, want := range tc.want {
			got := r.timeoutFor(verb)
			if want == 0 && got <= 0 {
				continue // no deadline
			}
			if got != want {
				t.Errorf("CallTimeout %v: timeoutFor(%q) = %v, want %v", tc.call, verb, got, want)
			}
		}
	}
}
