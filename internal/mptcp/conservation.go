package mptcp

import (
	"fmt"
	"time"
)

// ConservationChecker attaches to a connection's delivery path and
// asserts the end-to-end conservation invariant the programming model
// guarantees for ANY scheduler: every byte handed to Send is delivered
// to the receiving application exactly once and in order. Violations
// are collected rather than panicking so a chaos run can finish and
// report them all.
type ConservationChecker struct {
	conn *Conn

	next int64 // next expected meta sequence number

	// Bytes and Segments count in-order application deliveries.
	Bytes    int64
	Segments int64

	violations []string
}

// maxRecordedViolations bounds the violation list; past it we only
// count (a wedged run could otherwise accumulate millions of entries).
const maxRecordedViolations = 16

// NewConservationChecker attaches a checker to conn. It chains onto
// the delivery path (AddDeliveryHook), so it coexists with an
// application OnDeliver consumer or the fleet engine's latency probes.
func NewConservationChecker(conn *Conn) *ConservationChecker {
	k := &ConservationChecker{conn: conn}
	conn.Receiver().AddDeliveryHook(func(seq int64, size int, at time.Duration) {
		if seq != k.next {
			k.violate("delivery at %v: got seq %d, want %d", at, seq, k.next)
		}
		k.next = seq + 1
		k.Bytes += int64(size)
		k.Segments++
	})
	return k
}

// Reset starts the checker over for its connection's next world
// (Conn.Reset): nothing delivered, nothing violated. The violations
// returned so far stay the caller's.
//
//progmp:deterministic
func (k *ConservationChecker) Reset() {
	*k = ConservationChecker{conn: k.conn}
}

func (k *ConservationChecker) violate(format string, args ...any) {
	if len(k.violations) < maxRecordedViolations {
		k.violations = append(k.violations, fmt.Sprintf(format, args...))
	} else {
		k.violations[maxRecordedViolations-1] = "... and more (suppressed)"
	}
}

// Violations returns the recorded invariant violations.
//
//progmp:deterministic
func (k *ConservationChecker) Violations() []string { return k.violations }

// Check verifies the post-run invariant: wantBytes delivered exactly
// once and in order, and the sender fully acknowledged. Call it after
// the simulation horizon.
func (k *ConservationChecker) Check(wantBytes int64) error {
	if len(k.violations) > 0 {
		return fmt.Errorf("conservation violated (%d): %s", len(k.violations), k.violations[0])
	}
	if k.Bytes != wantBytes {
		return fmt.Errorf("delivered %d bytes, want exactly %d", k.Bytes, wantBytes)
	}
	if !k.conn.AllAcked() {
		return fmt.Errorf("sender not fully acked: Q=%d unacked=%d (RQ=%d)",
			k.conn.QueuedSegments(), k.conn.UnackedSegments(), k.conn.reinjectSegments())
	}
	return nil
}
