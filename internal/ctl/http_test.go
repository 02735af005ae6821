package ctl_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progmp"
	"progmp/internal/ctl"
)

// startFleetHarness runs two instrumented connections whose registries
// feed one aggregator, with both the NDJSON ctl endpoint and the HTTP
// exposition endpoint live.
func startFleetHarness(t *testing.T) (*ctl.Client, *progmp.MetricsAggregator, string) {
	t.Helper()
	nw := progmp.NewNetwork(23)
	agg := progmp.NewMetricsAggregator()
	ctlReg := progmp.NewMetrics() // server self-metrics
	agg.Attach(progmp.MetricsLabels{}, ctlReg)

	srv := ctl.NewServer(ctl.Options{Network: nw, Metrics: ctlReg, Agg: agg})
	for i := 1; i <= 2; i++ {
		conn, err := nw.Dial(progmp.ConnConfig{},
			progmp.Path{Name: "wifi", RateBps: 4e6, OneWayDelay: 8 * time.Millisecond},
			progmp.Path{Name: "lte", RateBps: 2e6, OneWayDelay: 25 * time.Millisecond},
		)
		if err != nil {
			t.Fatalf("Dial conn %d: %v", i, err)
		}
		reg := progmp.NewMetrics()
		conn.Instrument(nil, reg)
		name := fmt.Sprintf("c%d", i)
		agg.Attach(progmp.MetricsLabels{Conn: name, Scheduler: "minRTT"}, reg)
		sched, err := progmp.LoadScheduler("minRTT", progmp.Schedulers["minRTT"])
		if err != nil {
			t.Fatalf("LoadScheduler: %v", err)
		}
		conn.SetScheduler(sched)
		srv.Register(name, conn)
		conn.Send(64 << 10)
	}

	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen http: %v", err)
	}
	go srv.ServeMetricsHTTP(hln)

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
	return client, agg, "http://" + hln.Addr().String()
}

// waitForExecs polls until both connections' schedulers have executed
// and each has a timed execution in its conn.sched_exec_ns histogram
// (sampled, one execution in 16), so aggregated metrics and latency
// quantiles have real data behind them.
func waitForExecs(t *testing.T, client *ctl.Client) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		res, err := client.MetricsAgg("")
		if err != nil {
			t.Fatalf("MetricsAgg: %v", err)
		}
		ready := 0
		for _, src := range res.Snapshot.Sources {
			if src.Labels.Conn != "" && src.Snap.Hists["conn.sched_exec_ns"].Count > 0 {
				ready++
			}
		}
		if ready >= 2 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("connections never executed their schedulers")
}

func TestMetricsAggVerb(t *testing.T) {
	client, _, _ := startFleetHarness(t)
	waitForExecs(t, client)

	res, err := client.MetricsAgg("json")
	if err != nil {
		t.Fatalf("MetricsAgg json: %v", err)
	}
	if res.NumSources != 3 { // ctl registry + two connections
		t.Fatalf("NumSources = %d, want 3", res.NumSources)
	}
	if res.Snapshot == nil || res.Text != "" {
		t.Fatalf("json format filled wrong fields: %+v", res)
	}
	var perConn int64
	for _, src := range res.Snapshot.Sources {
		if src.Labels.Conn != "" {
			perConn += src.Snap.Counters["conn.sched_execs"]
		}
	}
	if merged := res.Snapshot.Counters["conn.sched_execs"]; perConn == 0 || merged < perConn {
		t.Fatalf("merged execs %d < per-conn sum %d", merged, perConn)
	}
	// The server's own request metrics aggregate in too (this very
	// request sequence produced them).
	if res.Snapshot.Counters["ctl.requests"] == 0 {
		t.Fatal("ctl.requests missing from aggregate")
	}
	if res.Snapshot.Hists["ctl.request_ns"].Count == 0 {
		t.Fatal("ctl.request_ns histogram empty")
	}
	// Hot-path latency histograms flow through aggregation.
	if res.Snapshot.Hists["conn.sched_exec_ns"].P50 <= 0 {
		t.Fatalf("aggregated conn.sched_exec_ns p50 = %d, want > 0",
			res.Snapshot.Hists["conn.sched_exec_ns"].P50)
	}

	text, err := client.MetricsAgg("text")
	if err != nil {
		t.Fatalf("MetricsAgg text: %v", err)
	}
	if text.Snapshot != nil || text.Text == "" {
		t.Fatalf("text format filled wrong fields: %+v", text)
	}
	for _, want := range []string{
		`progmp_conn_sched_execs_total{conn="c1",scheduler="minRTT"}`,
		`progmp_conn_sched_execs_total{conn="c2",scheduler="minRTT"}`,
		"# TYPE progmp_conn_sched_exec_ns histogram",
		"# EOF\n",
	} {
		if !strings.Contains(text.Text, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, text.Text)
		}
	}

	if _, err := client.MetricsAgg("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestMetricsHTTPEndpoint(t *testing.T) {
	client, _, base := startFleetHarness(t)
	waitForExecs(t, client)

	for _, path := range []string{"/metrics", "/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
			t.Fatalf("GET %s: content type %q", path, ct)
		}
		text := string(body)
		for _, want := range []string{
			`progmp_conn_sched_execs_total{conn="c1",scheduler="minRTT"}`,
			`progmp_conn_sched_execs_total{conn="c2",scheduler="minRTT"}`,
			"# EOF\n",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("GET %s lacks %q:\n%s", path, want, text)
			}
		}
		if !strings.HasSuffix(text, "# EOF\n") {
			t.Fatalf("GET %s does not end with # EOF", path)
		}
	}

	resp, err := http.Post(base+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsAggNotAttached(t *testing.T) {
	h := startHarness(t, false)
	if _, err := h.client.MetricsAgg(""); err == nil {
		t.Fatal("metrics-agg without aggregator should fail")
	}
}
