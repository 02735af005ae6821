package mptcp

import (
	"sort"
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/schedlib"
)

// verifyQuiescence turns VerifyQuiescence on until t ends and returns
// the count of certified triggers checked so far. The first few
// triggers that acted fail t.
func verifyQuiescence(t *testing.T) (checked func() int64) {
	var n, failed int64
	VerifyQuiescence = func(err error) {
		if err == nil {
			n++
		} else if failed++; failed <= 5 {
			t.Error(err)
		}
	}
	t.Cleanup(func() { VerifyQuiescence = nil })
	return func() int64 { return n }
}

// TestCertifiedTriggersAreInert runs every corpus program, on the three
// back-ends in turn, over the TestTransferDigestGolden shapes with the
// quiescence check on: every trigger the program's certificate skips
// executes anyway and must emit no action, write no register or
// global, and see on its snapshot the facts the connection computed
// without one. A certified program must be checked on some trigger, so
// the test cannot pass by skipping nothing. Under -short (the race
// job) it drives only the cheapest shape, a 1 MiB bulk transfer over
// the lossy, reordering chaos paths. TestCertifiedFleetTriggersAreInert
// (internal/fleet) does the same for the two benchmark fleets.
func TestCertifiedTriggersAreInert(t *testing.T) {
	checked := verifyQuiescence(t)
	shapes := goldenShapes
	if testing.Short() {
		shapes = nil
		for _, g := range goldenShapes {
			if g.name == "chaosRedundantLegacy" {
				shapes = append(shapes, g)
			}
		}
	}
	names := make([]string, 0, len(schedlib.All))
	for name := range schedlib.All {
		names = append(names, name)
	}
	sort.Strings(names)
	backends := []core.Backend{core.BackendInterpreter, core.BackendCompiled, core.BackendVM}
	for i, name := range names {
		s := core.MustLoad(name, schedlib.All[name], backends[i%len(backends)])
		s.SetSynchronousSpecialization(true)
		before := checked()
		for _, g := range shapes {
			eng := netsim.NewEngine(g.seed)
			conn, err := Dial(eng, g.cfg, g.specs(eng)...)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetScheduler(s)
			g.feed(eng, conn)
			for deadline := g.virtual + 60*time.Second; !conn.AllAcked() && eng.Now() <= deadline && eng.Step(); {
			}
		}
		cert := &s.AnalysisReport().Quiescence
		n := checked() - before
		t.Logf("%-23s %-11s %6d certified triggers checked (%v)", name, s.Backend(), n, cert)
		if cert.N > 0 && n == 0 {
			t.Errorf("%s: certified, but no trigger was checked", name)
		}
	}
}
