package ctl_test

import (
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"progmp"
	"progmp/internal/ctl"
)

// startSharedHarness is a live simulation with two connections attached
// to one shared-state store and a ctl server exposing that store on a
// Unix socket.
func startSharedHarness(t *testing.T) (*ctl.Client, *progmp.SharedStore, string) {
	t.Helper()
	nw := progmp.NewNetwork(17)
	st := progmp.NewSharedStore()
	paths := []progmp.Path{
		{Name: "wifi", RateBps: 4e6, OneWayDelay: 8 * time.Millisecond},
		{Name: "lte", RateBps: 2e6, OneWayDelay: 25 * time.Millisecond},
	}
	srv := ctl.NewServer(ctl.Options{Network: nw, Store: st})
	for i, name := range []string{"c1", "c2"} {
		conn, err := nw.Dial(progmp.ConnConfig{Store: st}, paths...)
		if err != nil {
			t.Fatalf("Dial %s: %v", name, err)
		}
		sched, err := progmp.LoadScheduler("jointFlow", progmp.Schedulers["jointFlow"])
		if err != nil {
			t.Fatalf("LoadScheduler: %v", err)
		}
		conn.SetScheduler(sched)
		if id := srv.Register(name, conn); id != i+1 {
			t.Fatalf("Register %s returned id %d, want %d", name, id, i+1)
		}
	}
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	done := make(chan struct{})
	go func() {
		nw.RunLive(time.Hour, pace)
		close(done)
	}()
	client := ctl.Dial(sock)
	t.Cleanup(func() {
		client.Close()
		nw.StopLive()
		srv.Close()
		<-done
	})
	return client, st, sock
}

// TestGSetReportsItsOwnEpoch: gset answers with the epoch its own
// write published while a feeder writes the store concurrently. Every
// sampled snapshot at or after a gset's epoch shows that gset's value
// (until the next gset's epoch), and none before it does.
func TestGSetReportsItsOwnEpoch(t *testing.T) {
	c, st, _ := startSharedHarness(t)
	const reg = 5 // no scheduler of the harness writes G6
	id := st.DestID("feeder")
	stop := make(chan struct{})
	var feeding sync.WaitGroup
	feeding.Add(1)
	go func() {
		defer feeding.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.RecordAck(id, 1000+int64(i%50), 1460)
			runtime.Gosched()
		}
	}()
	type sample struct {
		epoch uint64
		value int64
	}
	// The sampler samples before it checks stop, so at least one sample
	// exists however late it is scheduled, and its last one is taken
	// after the final gset. Feeder and sampler yield after each round:
	// on one CPU they would otherwise starve the gset round trips and
	// sample without bound.
	sampled := make(chan []sample)
	go func() {
		var out []sample
		for {
			snap := st.Load()
			out = append(out, sample{snap.Epoch, snap.Globals[reg]})
			runtime.Gosched()
			select {
			case <-stop:
				sampled <- out
				return
			default:
			}
		}
	}()
	const rounds = 40
	epochs := make([]uint64, rounds)
	for r := range epochs {
		res, err := c.GSet(reg, int64(r+1))
		if err != nil {
			close(stop)
			t.Fatalf("GSet round %d: %v", r, err)
		}
		epochs[r] = res.Epoch
	}
	close(stop)
	samples := <-sampled
	feeding.Wait()
	for _, s := range samples {
		var want int64 // before the first gset's epoch G6 is still 0
		for r, e := range epochs {
			if s.epoch >= e {
				want = int64(r + 1)
			}
		}
		if s.value != want {
			t.Fatalf("snapshot at epoch %d shows G%d = %d, want %d (gset epochs %v)", s.epoch, reg+1, s.value, want, epochs)
		}
	}
	if len(samples) == 0 {
		t.Fatal("no snapshot sampled")
	}
	t.Logf("%d snapshots sampled over %d gsets, epochs %d..%d", len(samples), rounds, epochs[0], epochs[rounds-1])
}

// The shared-state verbs end to end over a Unix socket: gset publishes
// an epoch every store-attached scheduler sees, gget reads it back with
// a coherent epoch, and deststats dumps the path statistics the fleet's
// transfers fed into the store.
func TestSharedStateVerbs(t *testing.T) {
	c, st, _ := startSharedHarness(t)

	set, err := c.GSet(0, 99)
	if err != nil {
		t.Fatalf("GSet: %v", err)
	}
	if set.Reg != 0 || set.Value != 99 || set.Epoch == 0 {
		t.Fatalf("GSet result %+v, want reg 0 value 99 epoch > 0", set)
	}
	got, err := c.GGet(0)
	if err != nil {
		t.Fatalf("GGet: %v", err)
	}
	if got.Value != 99 || got.Epoch < set.Epoch {
		t.Fatalf("GGet = %+v, want value 99 at epoch >= %d", got, set.Epoch)
	}
	if v := st.Load().Globals[0]; v != 99 {
		t.Fatalf("store global 0 = %d after ctl gset, want 99", v)
	}

	// Range validation: G-registers are 0..NumSharedGlobals-1.
	if _, err := c.GGet(progmp.NumSharedGlobals); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("GGet(%d) = %v, want out-of-range refusal", progmp.NumSharedGlobals, err)
	}
	if _, err := c.GSet(-1, 5); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("GSet(-1) = %v, want out-of-range refusal", err)
	}

	// Drive traffic on both connections so ACKs feed the store, then
	// watch the statistics surface through deststats.
	for conn := 1; conn <= 2; conn++ {
		if err := c.Send(conn, 64<<10, 0); err != nil {
			t.Fatalf("Send conn %d: %v", conn, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := c.DestStats()
		if err != nil {
			t.Fatalf("DestStats: %v", err)
		}
		bySamples := map[string]int64{}
		for _, d := range res.Dests {
			bySamples[d.Name] = d.Samples
		}
		if res.Epoch > 0 && bySamples["wifi"] > 0 && bySamples["lte"] > 0 {
			for i := 1; i < len(res.Dests); i++ {
				if res.Dests[i-1].Name >= res.Dests[i].Name {
					t.Fatalf("deststats not name-sorted: %+v", res.Dests)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deststats never showed samples on both paths: %+v", res.Dests)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deststats lists live records only. A destination released and swept
// by EvictIdle leaves a zeroed slot in the snapshot for the next
// registration to reuse; that slot is not a destination. Regression:
// deststats used to copy every slot, so a swept one showed up as a
// nameless zero row.
func TestDestStatsSkipsEvictedSlots(t *testing.T) {
	st := progmp.NewSharedStore()
	gone, kept := st.DestID("gone"), st.DestID("kept")
	st.RecordRTT(gone, 1000)
	st.RecordRTT(kept, 2000)
	st.ReleaseDest(gone)
	if n := st.EvictIdle(0); n != 1 {
		t.Fatalf("EvictIdle(0) evicted %d, want 1", n)
	}
	srv := ctl.NewServer(ctl.Options{Store: st})
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := ctl.Dial(sock)
	defer c.Close()

	res, err := c.DestStats()
	if err != nil {
		t.Fatalf("DestStats: %v", err)
	}
	for _, d := range res.Dests {
		if d.Name == "" {
			t.Fatalf("deststats lists an evicted slot as a nameless row: %+v", res.Dests)
		}
	}
	if len(res.Dests) != 1 || res.Dests[0].Name != "kept" || res.Dests[0].SRTTUS != 2000 {
		t.Fatalf("deststats = %+v, want the one live record kept", res.Dests)
	}
	if res.Epoch != st.Epoch() {
		t.Fatalf("deststats epoch %d, store at %d", res.Epoch, st.Epoch())
	}
}

// A server without a store refuses the shared-state verbs with a clear
// error instead of panicking or answering garbage.
func TestSharedStateVerbsWithoutStore(t *testing.T) {
	h := startHarness(t, false)
	for _, call := range []func() error{
		func() error { _, err := h.client.GGet(0); return err },
		func() error { _, err := h.client.GSet(0, 1); return err },
		func() error { _, err := h.client.DestStats(); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "store not attached") {
			t.Fatalf("shared-state verb without store = %v, want store-not-attached refusal", err)
		}
	}
}

// A client that has not dialled yet: its first call (gget) dials, and
// gset and deststats then work through the same connection.
func TestSharedStateVerbsOnLazyClient(t *testing.T) {
	// Harness on its own socket; the client dials lazily, so the first
	// verb exercises the dial path.
	_, st, sock := startSharedHarness(t)
	st.SetGlobal(2, 1234)

	rc := ctl.Dial(sock).With(ctl.RetryPolicy{
		BackoffBase: 5 * time.Millisecond,
		Seed:        21,
	})
	defer rc.Close()

	got, err := rc.GGet(2)
	if err != nil {
		t.Fatalf("GGet: %v", err)
	}
	if got.Value != 1234 {
		t.Fatalf("GGet = %+v, want 1234", got)
	}
	if _, err := rc.GSet(3, 7); err != nil {
		t.Fatalf("GSet: %v", err)
	}
	if v := st.Load().Globals[3]; v != 7 {
		t.Fatalf("store global 3 = %d after gset, want 7", v)
	}
	if _, err := rc.DestStats(); err != nil {
		t.Fatalf("DestStats: %v", err)
	}
}
