package fleet

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progmp/internal/obs"
	"progmp/internal/xstate"
)

var update = flag.Bool("update", false, "rewrite testdata/shared.golden from this run")

// TestSharedFleetDigest pins what a store-attached fleet does: jointFlow
// steering by the shared destination statistics, so every published
// record feeds back into later decisions. Per connection it pins the
// end-of-run accounting; per run the fired events, the delivery
// quantiles, the shard visits (fleet.visits: how often the window
// sweep found a world due) and the store's final records. The epoch
// count is left out on purpose: how many epochs a write sequence takes
// is the store's business, what the records hold is not. Regenerate with
// `go test -run TestSharedFleetDigest -update`.
func TestSharedFleetDigest(t *testing.T) {
	var b strings.Builder
	for _, loss := range []float64{0, 0.01, 0.02} {
		store := xstate.NewStore()
		agg := obs.NewAggregator()
		res, err := Run(Config{
			Conns:        300,
			Shards:       1,
			Seed:         7,
			Duration:     time.Second,
			LossProb:     loss,
			DestGroups:   32,
			NewScheduler: vmScheduler(t, "jointFlow"),
			Program:      "jointFlow",
			Store:        store,
			Agg:          agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, c := range res.PerConn {
			fmt.Fprintf(h, "%+v\n", c)
		}
		fmt.Fprintf(&b, "loss %.2f: events %d, delivered %d in %d bursts, %d acked, delivery p50 %d us p99 %d us, per-conn fnv %#x, visits %d\n",
			loss, res.Events, res.DeliveredBytes, res.Bursts, res.Acked, res.DeliveryP50US, res.DeliveryP99US, h.Sum64(),
			agg.Aggregate().Counters["fleet.visits"])
		for _, d := range store.Load().All() {
			fmt.Fprintf(&b, "  %-9s srtt %d us, lost %d, delivered %d, quarantines %d, samples %d\n",
				d.Name, d.SRTTUS, d.Lost, d.Delivered, d.Quarantines, d.Samples)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "shared.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("shared fleet drifted from %s (rerun with -update if intended)\nwant:\n%s\ngot:\n%s", golden, want, got)
	}
}
