// Redundancy: authoring an application-defined scheduler from scratch.
// This example writes a custom ProgMP scheduler inline — a redundant
// scheduler that duplicates only the application's high-priority
// packets (intent 1) and schedules everything else on the fastest
// path — and compares it against the built-in corpus on a lossy
// two-path network.
package main

import (
	"fmt"
	"log"
	"time"

	"progmp"
)

// prioRedundant is an application-defined scheduler: packets whose
// intent (PROP) is 1 go redundantly on every available subflow; other
// packets use the minimum-RTT strategy. Note the FILTER/MIN pipeline,
// the per-packet property access, and that the only side effects are
// PUSH/DROP — everything the type checker enforces statically.
const prioRedundant = `
VAR avail = SUBFLOWS.FILTER(sbf => !sbf.LOSSY
    AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
IF (!Q.EMPTY AND !avail.EMPTY) {
    IF (Q.TOP.PROP == 1) {
        FOREACH (VAR sbf IN avail) {
            sbf.PUSH(Q.TOP);
        }
        DROP(Q.POP());
    } ELSE {
        avail.MIN(sbf => sbf.RTT).PUSH(Q.POP());
    }
}
`

func main() {
	// Static checking catches scheduler bugs before deployment.
	if err := progmp.CheckScheduler(prioRedundant); err != nil {
		log.Fatalf("scheduler does not type-check: %v", err)
	}
	fmt.Println("custom scheduler type-checks; bytecode:")
	asm, err := progmp.Disassemble(prioRedundant)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d instructions\n\n", len(splitLines(asm)))

	fmt.Printf("%-16s %14s %14s %12s\n", "scheduler", "prio p95", "bulk p95", "wire bytes")
	for _, run := range []struct {
		name string
		src  string
	}{
		{"minRTT", progmp.Schedulers["minRTT"]},
		{"redundant", progmp.Schedulers["redundant"]},
		{"prioRedundant", prioRedundant},
	} {
		prio, bulk, wire, err := measure(run.name, run.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %14v %14v %12d\n", run.name, prio.Round(time.Millisecond), bulk.Round(time.Millisecond), wire)
	}
	fmt.Println("\nselective redundancy protects the latency-critical packets at a fraction of full redundancy's cost")
}

// measure interleaves high-priority pings (intent 1) with bulk data
// (intent 0) on a lossy network and reports p95 delivery latencies.
func measure(name, src string) (prioP95, bulkP95 time.Duration, wire int64, err error) {
	net := progmp.NewNetwork(9)
	conn, err := net.Dial(progmp.ConnConfig{CongestionControl: "reno"},
		progmp.Path{Name: "p1", RateBps: 2e6, OneWayDelay: 10 * time.Millisecond, LossProb: 0.02},
		progmp.Path{Name: "p2", RateBps: 2e6, OneWayDelay: 20 * time.Millisecond, LossProb: 0.02},
	)
	if err != nil {
		return 0, 0, 0, err
	}
	sched, err := progmp.LoadScheduler(name, src)
	if err != nil {
		return 0, 0, 0, err
	}
	conn.SetScheduler(sched)

	type sendRec struct {
		end  int64
		at   time.Duration
		prio bool
	}
	var sends []sendRec
	var latPrio, latBulk []time.Duration
	var delivered int64
	conn.OnDeliver(func(_ int64, size int, at time.Duration) {
		delivered += int64(size)
		for len(sends) > 0 && delivered >= sends[0].end {
			lat := at - sends[0].at
			if sends[0].prio {
				latPrio = append(latPrio, lat)
			} else {
				latBulk = append(latBulk, lat)
			}
			sends = sends[1:]
		}
	})
	var enqueued int64
	send := func(n int, prio bool) {
		enqueued += int64(n)
		sends = append(sends, sendRec{end: enqueued, at: net.Now(), prio: prio})
		intent := int64(0)
		if prio {
			intent = 1
		}
		conn.SendWithIntent(n, intent)
	}
	for at := 500 * time.Millisecond; at < 10*time.Second; at += 100 * time.Millisecond {
		at := at
		net.At(at, func() { send(1460, true) })                        // latency-critical ping
		net.At(at+50*time.Millisecond, func() { send(16<<10, false) }) // bulk chunk
	}
	net.Run(40 * time.Second)
	for _, s := range conn.Subflows() {
		wire += s.BytesSent
	}
	return p95(latPrio), p95(latBulk), wire, nil
}

func p95(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[int(0.95*float64(len(sorted)-1))]
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
