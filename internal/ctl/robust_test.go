package ctl_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progmp"
	"progmp/internal/ctl"
	"progmp/internal/guard"
	"progmp/internal/mptcp"
)

// robustHarness is like harness but exposes the server and lets tests
// tune the hardening knobs; lifecycle is managed by the test body (not
// t.Cleanup) so goroutine-leak checks can run after teardown.
type robustHarness struct {
	t       *testing.T
	nw      *progmp.Network
	conn    *progmp.Conn
	tracer  *progmp.Tracer
	metrics *progmp.Metrics
	checker *mptcp.ConservationChecker
	srv     *ctl.Server
	sock    string
	done    chan struct{}
}

func startRobustHarness(t *testing.T, seed int64, mutate func(*ctl.Options)) *robustHarness {
	t.Helper()
	nw := progmp.NewNetwork(seed)
	conn, err := nw.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 4e6, OneWayDelay: 8 * time.Millisecond},
		progmp.Path{Name: "lte", RateBps: 2e6, OneWayDelay: 25 * time.Millisecond, Backup: true},
	)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	tracer := progmp.NewTracer(0)
	metrics := progmp.NewMetrics()
	conn.Instrument(tracer, metrics)
	checker := mptcp.NewConservationChecker(conn.Inner())
	sched, err := progmp.LoadScheduler("minRTT", progmp.Schedulers["minRTT"])
	if err != nil {
		t.Fatalf("LoadScheduler: %v", err)
	}
	conn.SetScheduler(sched)

	opts := ctl.Options{Network: nw, Tracer: tracer, Metrics: metrics}
	if mutate != nil {
		mutate(&opts)
	}
	srv := ctl.NewServer(opts)
	srv.Register("c1", conn)
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
	return &robustHarness{
		t: t, nw: nw, conn: conn, tracer: tracer, metrics: metrics,
		checker: checker, srv: srv, sock: sock, done: done,
	}
}

func (h *robustHarness) teardown() {
	h.srv.Close()
	h.nw.StopLive()
	<-h.done
}

// A handler panic (here: the nil Network dereference in ping) is
// answered as an internal error, counted, and does not kill the session
// or the process.
func TestHandlerPanicRecovered(t *testing.T) {
	metrics := progmp.NewMetrics()
	srv := ctl.NewServer(ctl.Options{Metrics: metrics})
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := ctl.Dial("unix", sock)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Ping(); err == nil || !strings.Contains(err.Error(), "handler panicked") {
		t.Fatalf("Ping error = %v, want handler panicked", err)
	}
	// The session survives: a verb that does not touch the network still
	// answers on the same connection.
	if names, err := c.Schedulers(); err != nil || len(names) == 0 {
		t.Fatalf("Schedulers after panic = %v, %v", names, err)
	}
	if got := metrics.Counter("ctl.panics").Value(); got != 1 {
		t.Fatalf("ctl.panics = %d, want 1", got)
	}
}

// With a maxInflight limit of 1 and the simulation loop not yet running, the first
// request parks inside Network.Do and the second is refused immediately
// with an overload error instead of queueing behind it.
func TestOverloadRefusal(t *testing.T) {
	nw := progmp.NewNetwork(1) // RunLive never starts: Network.Do blocks
	metrics := progmp.NewMetrics()
	srv := ctl.NewServer(ctl.Options{Network: nw, Metrics: metrics}.With(ctl.Limits{MaxInflight: 1}))
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	dialRaw := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		raw, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatalf("raw dial: %v", err)
		}
		return raw, bufio.NewReader(raw)
	}
	connA, rdA := dialRaw()
	defer connA.Close()
	connB, rdB := dialRaw()
	defer connB.Close()

	if _, err := fmt.Fprintln(connA, `{"id":1,"verb":"list"}`); err != nil {
		t.Fatalf("write A: %v", err)
	}
	// Wait until A's handler is inflight (it blocks in Network.Do).
	deadline := time.Now().Add(5 * time.Second)
	for metrics.Counter("ctl.requests").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("request A never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let A advance from dispatch into Do

	if _, err := fmt.Fprintln(connB, `{"id":1,"verb":"list"}`); err != nil {
		t.Fatalf("write B: %v", err)
	}
	lineB, err := rdB.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read B: %v", err)
	}
	var respB ctl.Response
	if err := json.Unmarshal(lineB, &respB); err != nil {
		t.Fatalf("response B not JSON: %v", err)
	}
	if respB.OK || !strings.Contains(respB.Error, "overloaded") {
		t.Fatalf("second request response = %+v, want overload refusal", respB)
	}
	if got := metrics.Counter("ctl.overloads").Value(); got != 1 {
		t.Fatalf("ctl.overloads = %d, want 1", got)
	}

	// Release A: closing the inbox fails the parked closure, and the
	// handler answers with the injection error rather than wedging.
	nw.StopLive()
	lineA, err := rdA.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read A: %v", err)
	}
	var respA ctl.Response
	if err := json.Unmarshal(lineA, &respA); err != nil {
		t.Fatalf("response A not JSON: %v", err)
	}
	if respA.OK || !strings.Contains(respA.Error, "inbox closed") {
		t.Fatalf("first request response = %+v, want inbox closed", respA)
	}
}

// Drain: the ack arrives first, live streams end, later calls fail with
// ErrDisconnected, and new connections are refused.
func TestDrainGraceful(t *testing.T) {
	h := startRobustHarness(t, 11, nil)
	defer h.teardown()

	c, err := ctl.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	st, err := c.Subscribe(0, nil, 256)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	res, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !res.Draining {
		t.Fatalf("DrainResult = %+v, want Draining", res)
	}

	// The stream ends (closed subscription or closed connection).
	timeout := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-st.Events():
			open = ok
		case <-timeout:
			t.Fatalf("stream still open after drain")
		}
	}

	// Calls on the old connection eventually report a typed disconnect.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Ping()
		if err != nil && errors.Is(err, ctl.ErrDisconnected) {
			break
		}
		if err != nil && !errors.Is(err, ctl.ErrDisconnected) &&
			!strings.Contains(err.Error(), "draining") {
			t.Fatalf("Ping after drain = %v, want ErrDisconnected or draining refusal", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection never reported ErrDisconnected after drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the listener is gone: fresh dials are refused.
	if raw, err := net.Dial("unix", h.sock); err == nil {
		raw.Close()
		// A unix listener unlinks its socket on Close; a successful dial
		// here means the listener is still accepting.
		t.Fatalf("dial after drain succeeded, want refusal")
	}
	if !h.srv.Draining() {
		t.Fatalf("server does not report draining")
	}
}

// A stalled subscriber (never reads) is evicted by the tracer's
// consecutive-drop budget and the eviction is visible as a CTL_SUB_EVICT
// trace event.
func TestSubscriberEvictionEndToEnd(t *testing.T) {
	h := startRobustHarness(t, 17, func(o *ctl.Options) {
		*o = o.With(ctl.Limits{SubEvictDrops: 64, WriteTimeout: 250 * time.Millisecond})
	})
	defer h.teardown()

	raw, err := net.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	rd := bufio.NewReader(raw)
	// Subscribe with a tiny server-side buffer, read the ack, then stop
	// reading forever.
	if _, err := fmt.Fprintln(raw, `{"id":1,"verb":"subscribe","buf":1}`); err != nil {
		t.Fatalf("subscribe write: %v", err)
	}
	if _, err := rd.ReadBytes('\n'); err != nil {
		t.Fatalf("subscribe ack: %v", err)
	}

	// Generate a flood of trace events.
	c, err := ctl.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(1, 2_000_000, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		evicted := false
		for _, ev := range h.tracer.Events() {
			if ev.Kind.String() == "CTL_SUB_EVICT" {
				evicted = true
			}
		}
		if evicted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no CTL_SUB_EVICT event recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A fleet-blocked program is refused by both compile and swap over the
// control plane, counted, and installable only with force — the same
// override contract as the analyzer admission gate.
func TestFleetRefusalOverCtl(t *testing.T) {
	// No After hook: an operator block stays in force for the whole test.
	fleet := guard.NewFleet(guard.FleetConfig{})
	h := startRobustHarness(t, 11, func(o *ctl.Options) { o.Fleet = fleet })
	defer h.teardown()

	c, err := ctl.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	fleet.Block("redundant")

	if _, err := c.Swap(1, "redundant", "", "", false); err == nil || !strings.Contains(err.Error(), "fleet-blocked") {
		t.Fatalf("Swap of blocked program = %v, want fleet-blocked refusal", err)
	}
	if _, err := c.Compile("redundant", "", ""); err == nil || !strings.Contains(err.Error(), "fleet-blocked") {
		t.Fatalf("Compile of blocked program = %v, want fleet-blocked refusal", err)
	}
	if got := h.metrics.Counter("ctl.fleet_rejects").Value(); got != 2 {
		t.Fatalf("ctl.fleet_rejects = %d, want 2", got)
	}
	res, err := c.Swap(1, "redundant", "", "", true)
	if err != nil {
		t.Fatalf("forced Swap past fleet block: %v", err)
	}
	if res.Scheduler != "redundant" {
		t.Fatalf("forced swap installed %q, want redundant", res.Scheduler)
	}
	// An unblocked program is unaffected by the gate.
	if _, err := c.Swap(1, "minRTT", "", "", false); err != nil {
		t.Fatalf("Swap of unblocked program: %v", err)
	}
}

// The circuit breaker: consecutive dial failures open it, calls then
// fail fast with ErrCircuitOpen, and a server appearing after the
// cooldown closes it again.
func TestReClientBreaker(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	rc := ctl.DialRetry(ctl.RetryOptions{
		Network: "unix", Addr: sock,
		MaxAttempts: 1, // count failures call by call
	}.With(ctl.RetryPolicy{
		BreakerFails:    2,
		BreakerCooldown: 200 * time.Millisecond,
		Seed:            7,
	}))
	defer rc.Close()

	for i := 0; i < 2; i++ {
		if _, err := rc.Ping(); err == nil || !errors.Is(err, ctl.ErrDisconnected) {
			t.Fatalf("Ping %d with no server = %v, want ErrDisconnected", i, err)
		}
	}
	if !rc.BreakerOpen() {
		t.Fatalf("breaker not open after %d consecutive failures", 2)
	}
	if _, err := rc.Ping(); err == nil || !errors.Is(err, ctl.ErrCircuitOpen) {
		t.Fatalf("Ping with open breaker = %v, want ErrCircuitOpen", err)
	}
	// The fast-fail call never dialled: no failure joined the streak,
	// and the breaker stays open.
	if !rc.BreakerOpen() || rc.ConsecFails() != 2 {
		t.Fatalf("after the fast-fail call: breaker open=%v fails=%d, want open and 2", rc.BreakerOpen(), rc.ConsecFails())
	}

	// Bring a server up; once the cooldown elapses the half-open probe
	// reconnects and the breaker closes.
	h := startRobustHarnessAt(t, 3, sock)
	defer h.teardown()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := rc.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after the server came up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rc.BreakerOpen() || rc.ConsecFails() != 0 {
		t.Fatalf("breaker open=%v fails=%d after recovery, want closed and 0", rc.BreakerOpen(), rc.ConsecFails())
	}
}

// startRobustHarnessAt is startRobustHarness bound to a caller-chosen
// socket path (for restart-on-the-same-address tests).
func startRobustHarnessAt(t *testing.T, seed int64, sock string) *robustHarness {
	t.Helper()
	h := startRobustHarness(t, seed, nil)
	// Re-point: serve an extra listener on the requested path.
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen(%s): %v", sock, err)
	}
	go h.srv.Serve(ln)
	return h
}

// A ReClient survives its server restarting: calls fail while it is
// down, after retrying on a fresh dial, and the next call after it
// returns dials fresh and is served by the restarted server.
func TestReClientReconnect(t *testing.T) {
	h1 := startRobustHarness(t, 5, nil)
	rc := ctl.DialRetry(ctl.RetryOptions{
		Network: "unix", Addr: h1.sock,
		MaxAttempts: 4,
	}.With(ctl.RetryPolicy{
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		BreakerFails: 1000, // keep the breaker out of this test
		Seed:         9,
	}))
	defer rc.Close()

	if _, err := rc.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	// Kill the server. The unix listener unlinks its socket on Close, so
	// the path is free for the restart.
	h1.teardown()
	// The first attempt fails on the dead connection; the idempotent
	// Ping is retried on a fresh dial, which is what fails last.
	if _, err := rc.Ping(); err == nil || !errors.Is(err, ctl.ErrDisconnected) || !strings.Contains(err.Error(), "ctl: dial ") {
		t.Fatalf("Ping with server down = %v, want a retried dial's ErrDisconnected", err)
	}

	h2 := startRobustHarnessAt(t, 6, h1.sock)
	defer h2.teardown()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := rc.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ReClient never recovered after server restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The client reconnected: the restarted server served it.
	if got := h2.metrics.Counter("ctl.requests").Value(); got < 1 {
		t.Fatalf("restarted server handled %d requests, want >= 1", got)
	}
}

// waitGoroutines polls until the goroutine count returns to (or below)
// want+slack, dumping stacks on timeout.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d, want <= %d\n%s", n, want+slack, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCtlChaosSoak composes the data-plane simulation with control-plane
// chaos: a seeded proxy drops, stalls and slow-reads control
// connections while ReClient workers hammer idempotent verbs, subscriber
// churn opens and abandons streams, and a live transfer runs
// underneath. After teardown the test asserts byte-exact conservation
// and zero leaked goroutines. Run with -race.
func TestCtlChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			h := startRobustHarness(t, seed, func(o *ctl.Options) {
				*o = o.With(ctl.Limits{
					ReadIdleTimeout: 1 * time.Second,
					WriteTimeout:    500 * time.Millisecond,
					SubEvictDrops:   1024,
				})
			})
			proxy, err := ctl.NewChaosProxy("unix", h.sock, ctl.ChaosConfig{
				Seed:            seed,
				DropProb:        0.25,
				StallProb:       0.15,
				SlowProb:        0.15,
				MinLife:         5 * time.Millisecond,
				MaxLife:         60 * time.Millisecond,
				SlowBytesPerSec: 64 << 10,
			})
			if err != nil {
				t.Fatalf("NewChaosProxy: %v", err)
			}

			// The control client rides the clean socket: it drives the
			// transfer and the completion check.
			direct, err := ctl.Dial("unix", h.sock)
			if err != nil {
				t.Fatalf("Dial(direct): %v", err)
			}
			const payload = 3_000_000
			for i := 0; i < 3; i++ {
				if err := direct.Send(1, payload/3, 0); err != nil {
					t.Fatalf("Send %d: %v", i, err)
				}
			}

			var calls, callFails atomic.Int64
			var wg sync.WaitGroup
			// ReClient workers: every idempotent request must eventually
			// complete through the chaos (reconnecting as needed).
			for w := 0; w < 3; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rc := ctl.DialRetry(ctl.RetryOptions{
						Network: "unix", Addr: proxy.Addr(),
						CallTimeout: 500 * time.Millisecond,
						MaxAttempts: 4,
					}.With(ctl.RetryPolicy{
						BackoffBase:  2 * time.Millisecond,
						BackoffMax:   20 * time.Millisecond,
						BreakerFails: 1 << 30, // completion, not fail-fast, is under test
						Seed:         seed*10 + int64(w),
					}))
					defer rc.Close()
					for i := 0; i < 20; i++ {
						verb := ctl.VerbPing
						if i%2 == 1 {
							verb = ctl.VerbList
						}
						// Outer loop: chaos can defeat one Do's attempt
						// budget; the request itself must still complete.
						deadline := time.Now().Add(15 * time.Second)
						for {
							_, err := rc.Do(ctl.Request{Verb: verb})
							if err == nil {
								calls.Add(1)
								break
							}
							callFails.Add(1)
							if time.Now().After(deadline) {
								t.Errorf("worker %d: %s never completed: %v", w, verb, err)
								return
							}
						}
					}
				}()
			}
			// Subscriber churn: streams opened through the chaos proxy,
			// half abandoned without Close, connections dropped under
			// them.
			for s := 0; s < 3; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						cl, err := ctl.Dial("unix", proxy.Addr())
						if err != nil {
							continue // proxy may have been told to refuse us
						}
						ctx, cancel := context.WithTimeout(context.Background(), time.Second)
						st, err := cl.SubscribeCtx(ctx, 0, nil, 64)
						cancel()
						if err == nil {
							// Read briefly, then abandon or close.
							drainUntil := time.After(10 * time.Millisecond)
						drain:
							for {
								select {
								case _, ok := <-st.Events():
									if !ok {
										break drain
									}
								case <-drainUntil:
									break drain
								}
							}
							if (i+s)%2 == 0 {
								st.Close()
							}
						}
						cl.Close()
					}
				}()
			}

			wg.Wait()
			if calls.Load() != 60 {
				t.Fatalf("completed %d idempotent calls, want 60 (%d individual failures along the way)",
					calls.Load(), callFails.Load())
			}

			// The transfer underneath must have survived untouched. The
			// original direct session was idle throughout the soak, so
			// the server's read-idle deadline has reaped it by now —
			// check through a fresh connection.
			direct.Close()
			direct, err = ctl.Dial("unix", h.sock)
			if err != nil {
				t.Fatalf("Dial(direct, post-soak): %v", err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				res, err := direct.List()
				if err != nil {
					t.Fatalf("List: %v", err)
				}
				if len(res.Conns) == 1 && res.Conns[0].AllAcked {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("transfer did not complete")
				}
				time.Sleep(2 * time.Millisecond)
			}
			var consErr error
			if err := h.nw.Do(func() { consErr = h.checker.Check(payload) }); err != nil {
				t.Fatalf("Do: %v", err)
			}
			if consErr != nil {
				t.Fatalf("conservation under ctl chaos (seed %d): %v", seed, consErr)
			}

			t.Logf("seed %d: proxy accepts=%d drops=%d stalls=%d slows=%d; callFails=%d",
				seed, proxy.Accepts.Load(), proxy.Drops.Load(), proxy.Stalls.Load(), proxy.Slows.Load(), callFails.Load())

			direct.Close()
			proxy.Close()
			h.teardown()
			waitGoroutines(t, baseline)
		})
	}
}
