package ctl

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"progmp"
	"progmp/internal/guard"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden")

// wireSession is one raw control connection whose every request line
// and response line is appended to a transcript.
type wireSession struct {
	t   *testing.T
	out *bytes.Buffer
	c   net.Conn
	rd  *bufio.Reader
}

func dialWire(t *testing.T, out *bytes.Buffer, sock, name string) *wireSession {
	t.Helper()
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { c.Close() })
	fmt.Fprintf(out, "\n# session %s\n", name)
	return &wireSession{t: t, out: out, c: c, rd: bufio.NewReaderSize(c, 1<<20)}
}

// send writes one request line without waiting for an answer.
func (ws *wireSession) send(line string) {
	ws.t.Helper()
	fmt.Fprintf(ws.out, "> %s\n", line)
	if _, err := fmt.Fprintf(ws.c, "%s\n", line); err != nil {
		ws.t.Fatalf("write %q: %v", line, err)
	}
}

// recv reads one response line, or records end-of-stream.
func (ws *wireSession) recv() {
	ws.t.Helper()
	ws.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := ws.rd.ReadString('\n')
	if err != nil {
		if line == "" && !errors.Is(err, os.ErrDeadlineExceeded) {
			fmt.Fprintf(ws.out, "< <closed>\n")
			return
		}
		ws.t.Fatalf("read: %v (partial %q)", err, line)
	}
	fmt.Fprintf(ws.out, "< %s", normalizeWire(line))
}

func (ws *wireSession) call(line string) {
	ws.t.Helper()
	ws.send(line)
	ws.recv()
}

// The fields that depend on the wall clock or on how far the live
// simulation has run: the virtual clock, subflow and queue counters,
// and every latency histogram.
var wireVolatile = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(now_us|established|srtt_us|cwnd|bytes_sent|pkts_sent|retransmissions|throughput_bps|queued_segments|unacked_segments|all_acked)":[^,}]+`), `"$1":"*"`},
	{regexp.MustCompile(`"([^"]*_ns)":\{[^{}]*\}`), `"$1":"*"`},
}

func normalizeWire(line string) string {
	for _, v := range wireVolatile {
		line = v.re.ReplaceAllString(line, v.with)
	}
	return line
}

func listenWire(t *testing.T, srv *Server, name string) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), name+".sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return sock
}

// TestWireGolden pins the control plane's wire behaviour: one scripted
// exchange sends every verb and every refusal the server can give, and
// the transcript, with wall-clock-dependent fields masked, must match
// testdata/wire.golden byte for byte. Run with -update to rewrite it
// after an intended protocol change.
func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	wireFull(t, &out)
	wireBare(t, &out)

	golden := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		at := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "<end>"
		}
		t.Fatalf("wire transcript differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, at(gl), at(wl))
	}
}

// wireFull drives a server with every attachment — tracer, metrics,
// aggregator, shared store, fleet — over a live simulation.
func wireFull(t *testing.T, out *bytes.Buffer) {
	nw := progmp.NewNetwork(11)
	conn, err := nw.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 4e6, OneWayDelay: 8 * time.Millisecond},
		progmp.Path{Name: "lte", RateBps: 2e6, OneWayDelay: 25 * time.Millisecond, Backup: true},
	)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	tracer := progmp.NewTracer(0)
	conn.Instrument(tracer, nil)
	sched, err := progmp.LoadScheduler("minRTT", progmp.Schedulers["minRTT"])
	if err != nil {
		t.Fatalf("LoadScheduler: %v", err)
	}
	conn.SetScheduler(sched)

	// The registry holds only the server's self-metrics, and no
	// connection publishes into the store, so both read back exactly.
	metrics := progmp.NewMetrics()
	agg := progmp.NewMetricsAggregator()
	agg.Attach(progmp.MetricsLabels{}, metrics)
	fleet := guard.NewFleet(guard.FleetConfig{})
	fleet.Block("roundRobin")
	srv := NewServer(Options{
		Network: nw, Tracer: tracer, Metrics: metrics, Agg: agg,
		Store: progmp.NewSharedStore(), Fleet: fleet,
	})
	srv.Register("c1", conn)
	sock := listenWire(t, srv, "full")
	done := make(chan struct{})
	go func() {
		nw.RunLive(time.Hour, 500)
		close(done)
	}()
	t.Cleanup(func() {
		nw.StopLive()
		<-done
	})

	const noPush = `SET(R1, R1 + 1);`
	ws := dialWire(t, out, sock, "full")
	for _, line := range []string{
		`{"id":1,"verb":"ping"}`,
		`{"id":2,"verb":"schedulers"}`,
		`{"id":3,"verb":"list"}`,
		`{"id":4,"verb":"compile","name":"redundant"}`,
		`{"id":5,"verb":"compile","name":"noSuchSched"}`,
		`{"id":6,"verb":"compile"}`,
		`{"id":7,"verb":"compile","name":"redundant","backend":"jit"}`,
		`{"id":8,"verb":"compile","src":"` + noPush + `","backend":"jit"}`,
		`{"id":9,"verb":"compile","src":"missing.PUSH(Q.TOP);"}`,
		`{"id":10,"verb":"compile","src":"` + noPush + `"}`,
		`{"id":11,"verb":"swap","conn":1,"src":"` + noPush + `"}`,
		`{"id":12,"verb":"compile","name":"roundRobin"}`,
		`{"id":13,"verb":"swap","conn":1,"name":"roundRobin"}`,
		`{"id":14,"verb":"swap","conn":1,"name":"redundant"}`,
		`{"id":15,"verb":"swap","conn":99,"name":"redundant"}`,
		`{"id":16,"verb":"setreg","conn":1,"reg":1,"value":4000000}`,
		`{"id":17,"verb":"getreg","conn":1,"reg":1}`,
		`{"id":18,"verb":"setreg","conn":1,"reg":99,"value":1}`,
		`{"id":19,"verb":"getreg","conn":99}`,
		`{"id":20,"verb":"send","conn":1,"bytes":1000}`,
		`{"id":21,"verb":"send","conn":1}`,
		`{"id":22,"verb":"send","conn":99,"bytes":1000}`,
		`{"id":23,"verb":"gset","reg":2,"value":7}`,
		`{"id":24,"verb":"gget","reg":2}`,
		`{"id":25,"verb":"gget","reg":99}`,
		`{"id":26,"verb":"gset","reg":-1,"value":7}`,
		`{"id":27,"verb":"deststats"}`,
		`{"id":28,"verb":"metrics"}`,
		`{"id":29,"verb":"metrics-agg"}`,
		`{"id":30,"verb":"metrics-agg","format":"xml"}`,
		`{"id":31,"verb":"subscribe","conn":1,"kinds":["NOT_A_KIND"]}`,
		`{"id":32,"verb":"subscribe","conn":99}`,
		`{"id":33,"verb":"subscribe","conn":1,"kinds":["FLEET_BLOCK"]}`,
		`{"id":33,"verb":"subscribe","conn":1,"kinds":["FLEET_BLOCK"]}`,
		`{"id":34,"verb":"unsubscribe","sub":33}`,
		`{"id":35,"verb":"unsubscribe","sub":33}`,
		`{"id":36,"verb":"frobnicate"}`,
		`this is not json`,
		`{"id":37,"verb":"list"}`,
	} {
		ws.call(line)
	}
	// An oversized line is answered under id 0, then the session ends.
	fmt.Fprintf(out, "> <%d-byte line>\n", maxLine+1)
	go ws.c.Write(bytes.Repeat([]byte("x"), maxLine+1))
	ws.recv()
	ws.recv()
}

// wireBare drives a server with nothing attached over a network whose
// loop never runs, so a request that needs the simulation parks and
// holds the drain open while the draining refusals are recorded.
func wireBare(t *testing.T, out *bytes.Buffer) {
	nw := progmp.NewNetwork(1)
	t.Cleanup(nw.StopLive)
	conn, err := nw.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 4e6, OneWayDelay: 8 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	srv := NewServer(Options{Network: nw})
	srv.Register("c1", conn)
	sock := listenWire(t, srv, "bare")

	b := dialWire(t, out, sock, "bare-b")
	for _, line := range []string{
		`{"id":1,"verb":"gget"}`,
		`{"id":2,"verb":"gset","reg":0,"value":1}`,
		`{"id":3,"verb":"deststats"}`,
		`{"id":4,"verb":"subscribe"}`,
		`{"id":5,"verb":"metrics"}`,
		`{"id":6,"verb":"metrics-agg"}`,
	} {
		b.call(line)
	}

	a := dialWire(t, out, sock, "bare-a")
	a.send(`{"id":1,"verb":"list"}`)
	waitFor(t, "list to park in Network.Do", func() bool { return srv.inflight.Load() == 1 })

	fmt.Fprintf(out, "\n# session bare-b\n")
	b.call(`{"id":7,"verb":"drain"}`)
	waitFor(t, "the drain to begin", srv.Draining)
	for _, line := range []string{
		`{"id":8,"verb":"schedulers"}`,
		`{"id":9,"verb":"frobnicate"}`,
		`{"id":10,"verb":"unsubscribe","sub":5}`,
	} {
		b.call(line)
	}

	// Closing the inbox releases the parked list; the drain then ends
	// both sessions.
	nw.StopLive()
	fmt.Fprintf(out, "\n# session bare-a\n")
	a.recv()
	a.recv()
	fmt.Fprintf(out, "\n# session bare-b\n")
	b.recv()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
