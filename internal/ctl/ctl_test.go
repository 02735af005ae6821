package ctl_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"progmp"
	"progmp/internal/ctl"
	"progmp/internal/mptcp"
)

// pace runs simulations 500x faster than the wall clock: fast enough
// that transfers finish in milliseconds, alive long enough that the
// control plane can steer them.
const pace = 500

// harness is one live simulation with a ctl server on a Unix socket.
type harness struct {
	t       *testing.T
	nw      *progmp.Network
	conn    *progmp.Conn
	tracer  *progmp.Tracer
	checker *mptcp.ConservationChecker
	client  *ctl.Client
	sock    string
}

func startHarness(t *testing.T, supervised bool) *harness {
	t.Helper()
	nw := progmp.NewNetwork(11)
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
	if supervised {
		conn.Supervise(sched)
	} else {
		conn.SetScheduler(sched)
	}

	srv := ctl.NewServer(ctl.Options{Network: nw, Tracer: tracer, Metrics: metrics})
	if id := srv.Register("c1", conn); id != 1 {
		t.Fatalf("Register returned id %d, want 1", id)
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
	return &harness{t: t, nw: nw, conn: conn, tracer: tracer, checker: checker, client: client, sock: sock}
}

// waitAllAcked polls the control plane until the transfer completes.
func (h *harness) waitAllAcked() {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		res, err := h.client.List()
		if err != nil {
			h.t.Fatalf("List: %v", err)
		}
		if len(res.Conns) == 1 && res.Conns[0].AllAcked {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("transfer did not complete within the deadline")
}

func TestClientServerRoundTrip(t *testing.T) {
	h := startHarness(t, false)
	c := h.client

	if _, err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	names, err := c.Schedulers()
	if err != nil {
		t.Fatalf("Schedulers: %v", err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	if !have["minRTT"] || !have["redundant"] {
		t.Fatalf("scheduler corpus missing expected names: %v", names)
	}

	list, err := c.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list.Conns) != 1 {
		t.Fatalf("List returned %d conns, want 1", len(list.Conns))
	}
	ci := list.Conns[0]
	if ci.ID != 1 || ci.Name != "c1" || ci.Scheduler != "minRTT" || ci.Backend != "vm" {
		t.Fatalf("unexpected conn info: %+v", ci)
	}
	if len(ci.Registers) != 8 {
		t.Fatalf("got %d registers, want 8", len(ci.Registers))
	}
	if len(ci.Subflows) != 2 || ci.Subflows[0].Name != "wifi" || ci.Subflows[1].Name != "lte" {
		t.Fatalf("unexpected subflows: %+v", ci.Subflows)
	}
	if !ci.Subflows[1].Backup {
		t.Fatalf("lte subflow should report Backup")
	}

	if err := c.SetReg(1, progmp.R2, 4_000_000); err != nil {
		t.Fatalf("SetReg: %v", err)
	}
	if v, err := c.GetReg(1, progmp.R2); err != nil || v != 4_000_000 {
		t.Fatalf("GetReg = %d, %v; want 4000000, nil", v, err)
	}
	if err := c.SetReg(1, 99, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("SetReg(99) error = %v, want out-of-range", err)
	}

	cr, err := c.Compile("redundant", "", "")
	if err != nil {
		t.Fatalf("Compile(redundant): %v", err)
	}
	if cr.Name != "redundant" || cr.Backend != "vm" || cr.MemoryBytes <= 0 {
		t.Fatalf("unexpected compile result: %+v", cr)
	}
	// The protocol's backend dialect: omitted means vm (above), and
	// both spellings of the interpreter are accepted.
	for be, want := range map[string]string{"interp": "interpreter", "interpreter": "interpreter", "compiled": "compiled", "vm": "vm"} {
		if cr, err := c.Compile("redundant", "", be); err != nil || cr.Backend != want {
			t.Fatalf("Compile(backend %q) = %+v, %v; want backend %q", be, cr, err, want)
		}
	}
	if _, err := c.Compile("redundant", "", "jit"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("Compile(backend jit) error = %v, want unknown backend", err)
	}
	if _, err := c.Compile("", "SCHEDULER broken; garbage(", ""); err == nil {
		t.Fatalf("compiling garbage should fail")
	}
	if _, err := c.Compile("noSuchSched", "", ""); err == nil ||
		!strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("Compile(noSuchSched) error = %v, want unknown scheduler", err)
	}

	// Start a transfer, then hot-swap mid-flight and watch the
	// SCHED_SWAP event arrive on a live subscription.
	const payload = 2_000_000
	stream, err := c.Subscribe(1, []string{"SCHED_SWAP"}, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := c.Send(1, payload, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sw, err := c.Swap(1, "redundant", "", "", false)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if sw.Scheduler != "redundant" || sw.PrevScheduler != "minRTT" || sw.Supervised {
		t.Fatalf("unexpected swap result: %+v", sw)
	}
	select {
	case ev, ok := <-stream.Events():
		if !ok {
			t.Fatalf("stream closed before SCHED_SWAP arrived")
		}
		if ev.Ev != "SCHED_SWAP" {
			t.Fatalf("streamed event %q, want SCHED_SWAP", ev.Ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no SCHED_SWAP frame within 10s")
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("stream.Close: %v", err)
	}

	h.waitAllAcked()
	var consErr error
	if err := h.nw.Do(func() { consErr = h.checker.Check(payload) }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if consErr != nil {
		t.Fatalf("conservation after hot-swap: %v", consErr)
	}

	list, err = c.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if list.Conns[0].Scheduler != "redundant" {
		t.Fatalf("scheduler after swap = %q, want redundant", list.Conns[0].Scheduler)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatalf("metrics snapshot has no counters")
	}
}

func TestSwapOnSupervisedConnection(t *testing.T) {
	h := startHarness(t, true)
	c := h.client

	list, err := c.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	ci := list.Conns[0]
	if !ci.Supervised || ci.GuardState != "active" {
		t.Fatalf("supervised conn info = %+v", ci)
	}

	if err := c.Send(1, 1_000_000, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sw, err := c.Swap(1, "roundRobin", "", "", false)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if !sw.Supervised || sw.Scheduler != "roundRobin" || sw.PrevScheduler != "minRTT" {
		t.Fatalf("unexpected supervised swap result: %+v", sw)
	}
	h.waitAllAcked()
	var consErr error
	if err := h.nw.Do(func() { consErr = h.checker.Check(1_000_000) }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if consErr != nil {
		t.Fatalf("conservation after supervised swap: %v", consErr)
	}
}

func TestMalformedAndUnknownRequests(t *testing.T) {
	h := startHarness(t, false)

	raw, err := net.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	rd := bufio.NewReader(raw)
	roundTrip := func(line string) ctl.Response {
		t.Helper()
		if _, err := fmt.Fprintf(raw, "%s\n", line); err != nil {
			t.Fatalf("write: %v", err)
		}
		out, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		var resp ctl.Response
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("response not JSON: %v (%q)", err, out)
		}
		return resp
	}

	if resp := roundTrip("this is not json"); resp.OK || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("malformed line response: %+v", resp)
	}
	if resp := roundTrip(`{"id":7,"verb":"frobnicate"}`); resp.OK || resp.ID != 7 ||
		!strings.Contains(resp.Error, "unknown verb") {
		t.Fatalf("unknown verb response: %+v", resp)
	}
	if resp := roundTrip(`{"id":8,"verb":"getreg","conn":99}`); resp.OK ||
		!strings.Contains(resp.Error, "unknown conn id") {
		t.Fatalf("unknown conn response: %+v", resp)
	}
	// getreg refuses an index setreg refuses, with setreg's message.
	const oob = "mptcp: register index 99 out of range [0, 8)"
	for _, verb := range []string{"getreg", "setreg"} {
		if resp := roundTrip(`{"verb":"` + verb + `","conn":1,"reg":99}`); resp.OK || resp.Error != oob {
			t.Fatalf("%s of register 99: %+v, want refusal %q", verb, resp, oob)
		}
	}
	// The session survives all of the above.
	if resp := roundTrip(`{"id":9,"verb":"ping"}`); !resp.OK {
		t.Fatalf("ping after errors: %+v", resp)
	}

	if err := h.client.SetReg(99, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown conn id") {
		t.Fatalf("client SetReg(conn 99) error = %v, want unknown conn id", err)
	}
	if _, err := h.client.Subscribe(1, []string{"NOT_A_KIND"}, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown event kind") {
		t.Fatalf("Subscribe(NOT_A_KIND) error = %v, want unknown event kind", err)
	}
}

// A peer cannot make the server allocate or enqueue without bound: a
// subscription buffer above maxSubscriptionBuffer and a send above
// maxSendBytes are refused, the refusal leaves the send queue as it
// was, and the session goes on answering.
func TestOversizedRequestsRefused(t *testing.T) {
	h := startHarness(t, false)
	raw, err := net.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	rd := bufio.NewReader(raw)
	roundTrip := func(line string) ctl.Response {
		t.Helper()
		if _, err := fmt.Fprintf(raw, "%s\n", line); err != nil {
			t.Fatalf("write: %v", err)
		}
		out, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		var resp ctl.Response
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("response not JSON: %v (%q)", err, out)
		}
		return resp
	}
	enqueued := func() int64 {
		t.Helper()
		var n int64
		if err := h.nw.Do(func() { n = h.conn.Inner().TotalEnqueued }); err != nil {
			t.Fatalf("Do: %v", err)
		}
		return n
	}

	line := fmt.Sprintf(`{"id":1,"verb":"subscribe","buf":%d}`, ctl.MaxSubscriptionBuffer+1)
	if resp := roundTrip(line); resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("subscribe with buf %d: %+v, want a refusal", ctl.MaxSubscriptionBuffer+1, resp)
	}
	before := enqueued()
	line = fmt.Sprintf(`{"id":2,"verb":"send","conn":1,"bytes":%d}`, ctl.MaxSendBytes+1)
	if resp := roundTrip(line); resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("send of %d bytes: %+v, want a refusal", ctl.MaxSendBytes+1, resp)
	}
	if after := enqueued(); after != before {
		t.Fatalf("refused send moved the queue: %d segments enqueued, was %d", after, before)
	}
	if resp := roundTrip(`{"id":3,"verb":"ping"}`); !resp.OK {
		t.Fatalf("ping after the refusals: %+v", resp)
	}

	// The caps themselves are fine.
	st, err := h.client.Subscribe(1, nil, ctl.MaxSubscriptionBuffer)
	if err != nil {
		t.Fatalf("Subscribe at the cap: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream.Close: %v", err)
	}
	if err := h.client.Send(1, 100_000, 0); err != nil {
		t.Fatalf("Send after the refusal: %v", err)
	}
	h.waitAllAcked()
}

// TestConcurrentSubscribersDuringTransfer exercises subscription fan-out
// and control calls racing a live transfer; run with -race.
func TestConcurrentSubscribersDuringTransfer(t *testing.T) {
	h := startHarness(t, false)
	c := h.client

	const subscribers = 4
	var wg sync.WaitGroup
	counts := make([]int, subscribers)
	streams := make([]*ctl.Stream, subscribers)
	for i := 0; i < subscribers; i++ {
		st, err := c.Subscribe(1, nil, 1024)
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		streams[i] = st
		wg.Add(1)
		go func(i int, st *ctl.Stream) {
			defer wg.Done()
			for range st.Events() {
				counts[i]++
			}
		}(i, st)
	}

	if err := c.Send(1, 1_500_000, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for _, name := range []string{"roundRobin", "redundant", "minRTT"} {
		if _, err := c.Swap(1, name, "", "", false); err != nil {
			t.Fatalf("Swap(%s): %v", name, err)
		}
		if err := c.SetReg(1, progmp.R1, 1_000_000); err != nil {
			t.Fatalf("SetReg: %v", err)
		}
	}
	h.waitAllAcked()

	for _, st := range streams {
		if err := st.Close(); err != nil {
			t.Fatalf("stream.Close: %v", err)
		}
	}
	wg.Wait()
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("subscriber %d received no events", i)
		}
	}
}

func TestUnsubscribeUnknown(t *testing.T) {
	h := startHarness(t, false)
	raw, err := net.Dial("unix", h.sock)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	rd := bufio.NewReader(raw)
	if _, err := fmt.Fprintln(raw, `{"id":3,"verb":"unsubscribe","sub":42}`); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var resp ctl.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "no subscription") {
		t.Fatalf("unsubscribe(42) response: %+v", resp)
	}
}

// The static-analysis admission gate: compile reports structured
// diagnostics, swap refuses warning-carrying programs unless forced.
func TestAnalysisAdmissionGate(t *testing.T) {
	h := startHarness(t, false)
	c := h.client

	// A clean corpus scheduler compiles with a step bound and no
	// warnings.
	cr, err := c.Compile("minRTT", "", "")
	if err != nil {
		t.Fatalf("Compile(minRTT): %v", err)
	}
	if cr.Warnings != 0 {
		t.Fatalf("minRTT compiled with %d warnings: %+v", cr.Warnings, cr.Diagnostics)
	}
	if cr.StepBound == "" || cr.StepBoundSteps <= 0 {
		t.Fatalf("compile result missing step bound: %+v", cr)
	}

	// A rejected program returns structured diagnostics, not just a
	// flat error string.
	_, err = c.Compile("", "missing.PUSH(Q.TOP);", "")
	if err == nil {
		t.Fatal("compiling an undeclared-identifier program should fail")
	}
	var de *ctl.DiagError
	if !errors.As(err, &de) {
		t.Fatalf("Compile error is %T (%v), want *ctl.DiagError", err, err)
	}
	found := false
	for _, d := range de.Diags {
		if d.Rule == "use-before-def" && d.Severity.String() == "error" && d.Line == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no use-before-def error diagnostic in %+v", de.Diags)
	}

	// A program that type-checks but carries warnings (never pushes)
	// compiles with the diagnostics attached...
	noPush := "SET(R1, R1 + 1);"
	cr, err = c.Compile("", noPush, "")
	if err != nil {
		t.Fatalf("Compile(no-push): %v", err)
	}
	if cr.Warnings == 0 {
		t.Fatalf("no-push program compiled without warnings: %+v", cr)
	}

	// ...but swap refuses it, with the same structured findings.
	_, err = c.Swap(1, "", noPush, "", false)
	if err == nil {
		t.Fatal("swap of a warning-carrying program should be refused")
	}
	if !errors.As(err, &de) {
		t.Fatalf("Swap error is %T (%v), want *ctl.DiagError", err, err)
	}
	hasNoPush := false
	for _, d := range de.Diags {
		if d.Rule == "no-push" {
			hasNoPush = true
		}
	}
	if !hasNoPush {
		t.Fatalf("refusal diagnostics missing no-push: %+v", de.Diags)
	}
	if got, err := c.List(); err != nil || got.Conns[0].Scheduler != "minRTT" {
		t.Fatalf("refused swap must not install: scheduler=%q err=%v", got.Conns[0].Scheduler, err)
	}

	// Force overrides warnings (never errors).
	sw, err := c.Swap(1, "", noPush, "", true)
	if err != nil {
		t.Fatalf("forced Swap: %v", err)
	}
	if sw.Scheduler != "adhoc" {
		t.Fatalf("forced swap installed %q, want adhoc", sw.Scheduler)
	}
	if _, err := c.Swap(1, "", "missing.PUSH(Q.TOP);", "", true); err == nil {
		t.Fatal("force must not override error-severity findings")
	}
}
