package main

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progmp"
	"progmp/internal/ctl"
)

// serve starts a control-plane server over one live minRTT connection
// on a Unix socket under t.TempDir and returns the socket path.
func serve(t *testing.T) string {
	t.Helper()
	nw := progmp.NewNetwork(3)
	conn, err := nw.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 4e6, OneWayDelay: 8 * time.Millisecond},
		progmp.Path{Name: "lte", RateBps: 2e6, OneWayDelay: 25 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := progmp.LoadScheduler("minRTT", progmp.Schedulers["minRTT"])
	if err != nil {
		t.Fatal(err)
	}
	conn.SetScheduler(sched)
	srv := ctl.NewServer(ctl.Options{Network: nw})
	srv.Register("c1", conn)
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	done := make(chan struct{})
	go func() {
		nw.RunLive(time.Hour, 500)
		close(done)
	}()
	t.Cleanup(func() {
		nw.StopLive()
		srv.Close()
		<-done
	})
	return sock
}

// ctlRun runs progmpctl against sock and returns its exit status and
// output.
func ctlRun(sock string, args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(append([]string{"-s", sock}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

func TestVerbsAgainstLiveServer(t *testing.T) {
	sock := serve(t)
	steps := []struct {
		args []string
		want string // a line fragment of stdout
	}{
		{[]string{"list"}, "conn 1 c1         sched=minRTT"},
		{[]string{"setreg", "R3", "4000000"}, "R3 = 4000000"},
		{[]string{"getreg", "R3"}, "R3 = 4000000"},
		{[]string{"list"}, "registers R3=4000000"},
		{[]string{"swap", "redundant"}, "conn 1: minRTT -> redundant on vm backend"},
		{[]string{"list"}, "sched=redundant"},
		{[]string{"getreg", "2"}, "R3 = 4000000"},
		{[]string{"top", "1"}, "  conn 1  c1         redundant "},
		{[]string{"top", "1"}, "fleet metrics unavailable: no aggregator attached"},
	}
	for _, st := range steps {
		code, stdout, stderr := ctlRun(sock, st.args...)
		if code != 0 || !strings.Contains(stdout, st.want) {
			t.Fatalf("progmpctl %v: exit %d, stderr %q, stdout:\n%s\nwant a line with %q", st.args, code, stderr, stdout, st.want)
		}
	}
	// One frame is pipeable: no screen-clearing escape before it.
	if _, stdout, _ := ctlRun(sock, "top", "1"); !strings.HasPrefix(stdout, "progmp-top  virtual ") {
		t.Fatalf("top 1 does not open with its header:\n%q", stdout)
	}
}

func TestUsageAndErrors(t *testing.T) {
	sock := serve(t)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage: progmpctl"},
		{[]string{"-nosuchflag", "list"}, 2, "flag provided but not defined"},
		{[]string{"-s", sock, "frobnicate"}, 1, `unknown command "frobnicate"`},
		{[]string{"-s", sock, "setreg", "R9", "1"}, 1, `bad register "R9"`},
		{[]string{"-s", sock, "swap", "no-such-program"}, 1, "neither a built-in scheduler nor a readable file"},
		{[]string{"-s", sock, "-conn", "7", "getreg", "R1"}, 1, "unknown conn id 7"},
		{[]string{"-s", sock, "top", "-1"}, 1, `bad refresh count "-1"`},
		{[]string{"-s", sock, "top", "1", "2"}, 1, "top [N]"},
	} {
		var out, errw bytes.Buffer
		code := run(tc.args, &out, &errw)
		if code != tc.code || !strings.Contains(errw.String(), tc.want) {
			t.Errorf("progmpctl %v: exit %d, stderr %q; want %d and %q", tc.args, code, errw.String(), tc.code, tc.want)
		}
	}
}
