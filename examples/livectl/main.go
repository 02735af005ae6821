// Live control: an application steering its own transfer through the
// out-of-process control plane (internal/ctl) while it runs. One
// goroutine hosts the simulation with a ctl server on a Unix socket —
// exactly what `mpsim -ctl` does — and the main goroutine plays the
// application: it streams its data in chunks over the socket, raises
// the TAP target register when its "bitrate" steps up, and hot-swaps
// schedulers between phases. The SCHED_SWAP trace events stream back
// over the same socket.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"progmp"
	"progmp/internal/ctl"
)

const (
	chunk = 2 << 20 // bytes per streaming phase
	pace  = 200     // virtual seconds per wall second
)

func main() {
	// ---- The "server" half: a simulation with a control socket. In a
	// real deployment this is `mpsim -ctl /tmp/mpsim.sock` (or any
	// embedder of internal/ctl) in another terminal.
	nw := progmp.NewNetwork(7)
	conn, err := nw.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond, LossProb: 0.003},
		progmp.Path{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, Backup: true},
	)
	if err != nil {
		log.Fatal(err)
	}
	tracer := progmp.NewTracer(0)
	conn.Instrument(tracer, progmp.NewMetrics())
	minRTT, err := progmp.LoadScheduler("minRTT", progmp.Schedulers["minRTT"])
	if err != nil {
		log.Fatal(err)
	}
	conn.SetScheduler(minRTT)

	dir, err := os.MkdirTemp("", "livectl")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		log.Fatal(err)
	}
	srv := ctl.NewServer(ctl.Options{Network: nw, Tracer: tracer})
	srv.Register("stream", conn)
	go srv.Serve(ln)
	done := make(chan struct{})
	go func() {
		nw.RunLive(10*time.Minute, pace)
		close(done)
	}()
	defer func() {
		nw.StopLive()
		srv.Close()
		<-done
	}()

	// ---- The "application" half: steer the stream over the socket.
	c, err := ctl.Dial("unix", sock)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	swaps, err := c.Subscribe(1, []string{"SCHED_SWAP"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer swaps.Close()

	// Phase 1: bulk prefetch on the default scheduler.
	fmt.Println("phase 1: minRTT, prefetching a chunk")
	streamChunk(c)

	// Phase 2: playback starts — switch to the target-aware TAP
	// scheduler and tell it the stream bitrate through R1.
	if _, err := c.Swap(1, "tap", "", "", false); err != nil {
		log.Fatal(err)
	}
	if err := c.SetReg(1, progmp.R1, 2_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 2: hot-swapped to tap, target 2.0 MB/s")
	streamChunk(c)

	// Phase 3: the latency-critical tail — duplicate every packet.
	sw, err := c.Swap(1, "redundant", "", "", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 3: hot-swapped %s -> %s for the tail\n", sw.PrevScheduler, sw.Scheduler)
	streamChunk(c)

	// Both swaps were traced; read them back off the live stream.
	for i := 0; i < 2; i++ {
		select {
		case ev := <-swaps.Events():
			fmt.Printf("  SCHED_SWAP traced at t=%v\n", time.Duration(ev.AtUS)*time.Microsecond)
		case <-time.After(10 * time.Second):
			log.Fatal("missing SCHED_SWAP event")
		}
	}

	res, err := c.List()
	if err != nil {
		log.Fatal(err)
	}
	ci := res.Conns[0]
	fmt.Printf("\ndone: scheduler=%s allAcked=%v\n", ci.Scheduler, ci.AllAcked)
	for _, sf := range ci.Subflows {
		fmt.Printf("  %-5s carried %8d bytes (%d retx)\n", sf.Name, sf.BytesSent, sf.Retransmissions)
	}
}

// streamChunk enqueues one chunk and polls the control plane until the
// connection drains, like an application pacing itself on its socket
// buffer.
func streamChunk(c *ctl.Client) {
	if err := c.Send(1, chunk, 0); err != nil {
		log.Fatal(err)
	}
	for {
		res, err := c.List()
		if err != nil {
			log.Fatal(err)
		}
		if res.Conns[0].AllAcked {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
