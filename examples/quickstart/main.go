// Quickstart: load the default ProgMP scheduler, transfer a megabyte
// over a two-path (WiFi + LTE) MPTCP connection in the simulated
// network, and print what each subflow carried. Then run the same
// transfer on each of the three execution back-ends and check that
// every byte arrives at the same virtual time.
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"progmp"
)

func main() {
	// Load the kernel's default scheduler, expressed in the ProgMP
	// language, onto the bytecode VM backend.
	sched, err := progmp.LoadScheduler("default", progmp.Schedulers["minRTT"])
	if err != nil {
		log.Fatal(err)
	}
	conn, arrivals, delivered := transfer(sched)
	last := arrivals[len(arrivals)-1]

	fmt.Printf("delivered %d bytes in %v (%.2f MB/s goodput)\n",
		delivered, last, float64(delivered)/last.Seconds()/1e6)
	for _, s := range conn.Subflows() {
		fmt.Printf("  %-5s sent %8d bytes in %4d packets, srtt %v\n",
			s.Name, s.BytesSent, s.PktsSent, s.SRTT.Round(time.Millisecond))
	}

	// The interpreter, the closure compiler and the VM (§4.1) run one
	// program, so they make the same decisions and the transfer's
	// delivery is identical on each (Fig. 9 bottom).
	for _, backend := range []progmp.Backend{progmp.BackendInterpreter, progmp.BackendCompiled, progmp.BackendVM} {
		s, err := progmp.LoadSchedulerBackend("default", progmp.Schedulers["minRTT"], backend)
		if err != nil {
			log.Fatal(err)
		}
		if _, got, _ := transfer(s); !slices.Equal(got, arrivals) {
			log.Fatalf("the %v back-end delivered the transfer differently", backend)
		}
		fmt.Printf("  %-11s back-end: delivery identical\n", backend)
	}
}

// transfer sends a megabyte under sched and returns the connection,
// the arrival time of each in-order delivery and the bytes delivered.
func transfer(sched *progmp.Scheduler) (*progmp.Conn, []time.Duration, int64) {
	// A deterministic network: same seed, same run.
	net := progmp.NewNetwork(42)

	// One MPTCP connection with two subflows. The LTE path is marked
	// backup = non-preferred, which the default scheduler interprets
	// as "only use when nothing else exists".
	conn, err := net.Dial(progmp.ConnConfig{},
		progmp.Path{Name: "wifi", RateBps: 3e6, OneWayDelay: 5 * time.Millisecond},
		progmp.Path{Name: "lte", RateBps: 8e6, OneWayDelay: 20 * time.Millisecond, Backup: true},
	)
	if err != nil {
		log.Fatal(err)
	}
	conn.SetScheduler(sched)

	var arrivals []time.Duration
	var delivered int64
	conn.OnDeliver(func(_ int64, size int, at time.Duration) {
		arrivals = append(arrivals, at)
		delivered += int64(size)
	})

	net.At(0, func() { conn.Send(1 << 20) })
	net.Run(30 * time.Second)
	return conn, arrivals, delivered
}
