package mptcp

import (
	"testing"
	"time"

	"progmp/internal/mptcp/sched"
	"progmp/internal/netsim"
)

// TestSinglePathBulkMatchesClosedForm is the substrate oracle for the
// one case with a closed form: one lossless subflow of rate R bytes/s
// and one-way delay D, one bulk write of B bytes at t0 on an
// established connection, MinRTT scheduling.
//
// The write is n = ⌈B/MSS⌉ segments and W = B + 40·n bytes on the wire.
// The link serializes one packet at a time and nothing is lost, so with
// T the time from t0 to the last in-order delivery:
//
//	T ≥ W/R + D
//
// — every wire byte passes the transmitter, which starts no earlier than
// t0, and the last one still has to propagate. The transmitter idles
// only while the congestion window, not the link, is the limit, which
// costs less than one RTT per slow-start round in which the window
// serializes faster than an RTT. The rates here keep the
// bandwidth-delay product R·RTT below the initial window of 10
// segments, so there are k = 0 such rounds (the first ACK is back
// before the initial window has left the transmitter); the receive
// window (4 MiB) never binds, and one RTT covers the ACK clock's
// granularity:
//
//	T ≤ W/R + D + (k+1)·RTT,  RTT = 2·D + (MSS+40)/R + 40/R
//
// The slack is under 1 % of W/R, so the bounds at R, R/2 and R/4 do
// not overlap: scaling the rate by k is observed to scale the
// serialization term by 1/k. Every sequence number is delivered exactly
// once, in order.
func TestSinglePathBulkMatchesClosedForm(t *testing.T) {
	const (
		mss   = 1460
		bytes = 4 << 20
		delay = 2500 * time.Microsecond
		t0    = 100 * time.Millisecond
	)
	segs := (bytes + mss - 1) / mss
	wire := float64(bytes + 40*segs)
	var prevUpper time.Duration
	for _, rate := range []float64{1.25e6, 625e3, 312.5e3} {
		eng := netsim.NewEngine(1)
		conn, err := Dial(eng, Config{}, SubflowSpec{Path: netsim.PathConfig{
			Name: "p", Rate: netsim.ConstantRate(rate), Delay: delay,
		}})
		if err != nil {
			t.Fatal(err)
		}
		conn.SetScheduler(sched.MinRTT{})
		var delivered int64
		var last time.Duration
		conn.Receiver().AddDeliveryHook(func(seq int64, _ int, at time.Duration) {
			if seq != delivered {
				t.Fatalf("rate %.0f: delivery of seq %d, want %d (each sequence number once, in order)", rate, seq, delivered)
			}
			delivered++
			last = at
		})
		eng.At(t0, func() {
			if !conn.Subflows()[0].Established() {
				t.Fatalf("rate %.0f: subflow not established at t0", rate)
			}
			conn.Send(bytes, 0)
		})
		eng.RunUntil(time.Minute)
		if !conn.AllAcked() || delivered != int64(segs) {
			t.Fatalf("rate %.0f: %d of %d segments delivered, all acked = %v", rate, delivered, segs, conn.AllAcked())
		}
		if s := conn.Subflows()[0]; s.Retransmissions != 0 || s.PktsSent != int64(segs) {
			t.Fatalf("rate %.0f: %d packets and %d retransmissions for %d segments on a lossless path", rate, s.PktsSent, s.Retransmissions, segs)
		}

		seconds := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
		rtt := 2*delay + seconds((mss+40)/rate) + seconds(40/rate)
		if bdp := rate * rtt.Seconds() / (mss + 40); bdp > 10 {
			t.Fatalf("rate %.0f: bandwidth-delay product of %.1f segments exceeds the initial window", rate, bdp)
		}
		lower := seconds(wire/rate) + delay
		upper := lower + rtt
		got := last - t0
		// The engine rounds each packet's serialization to a nanosecond.
		if rounding := time.Duration(segs); got < lower-rounding || got > upper+rounding {
			t.Errorf("rate %.0f: last delivery %v after the write, closed form [%v, %v]", rate, got, lower, upper)
		}
		if lower <= prevUpper {
			t.Errorf("rate %.0f: lower bound %v within the upper bound %v of twice the rate: the slack hides the scaling", rate, lower, prevUpper)
		}
		prevUpper = upper
	}
}
