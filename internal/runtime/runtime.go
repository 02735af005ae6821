// Package runtime defines the execution-environment contract between the
// ProgMP scheduler back-ends (interpreter, compiled closures, bytecode VM)
// and the MPTCP substrate.
//
// It mirrors §3.1 of the paper: the environment exposes the sending queue
// Q, the in-flight queue QU, the reinjection queue RQ, and the set of
// subflows — all as immutable snapshots for the duration of one scheduler
// execution. Side effects are collected in an action queue and applied
// by the substrate after the execution, decoupling evaluation from
// packet movement (§4.1): a PUSH transmits and a DROP discards, while a
// POP only hides the packet from the rest of its execution, so a popped
// packet that is neither pushed nor dropped stays where it was.
package runtime

import "fmt"

// NumRegisters is the number of integer registers (R1..R8) each
// scheduler instance keeps across executions (§3.3).
const NumRegisters = 8

// NumGlobals is the number of global registers (G1..G8) shared across
// every connection attached to the same cross-connection state store.
const NumGlobals = 8

// MaxSubflows bounds the number of concurrently tracked subflows. Packet
// views track per-subflow transmission with a bitmask indexed by subflow ID.
const MaxSubflows = 64

// QueueID identifies one of the three packet queues of the environment.
type QueueID int

// The three queues of the scheduling environment model (§3.1).
const (
	QueueSend     QueueID = iota // Q: packets pushed by the application
	QueueUnacked                 // QU: unacknowledged packets in flight
	QueueReinject                // RQ: packets suspected lost, to reinject
)

// String names the queue as spelled in the language.
func (q QueueID) String() string {
	switch q {
	case QueueSend:
		return "Q"
	case QueueUnacked:
		return "QU"
	case QueueReinject:
		return "RQ"
	}
	return fmt.Sprintf("QueueID(%d)", int(q))
}

// SubflowIntProp enumerates integer-valued subflow properties.
type SubflowIntProp int

// Integer subflow properties (Table 1 and §3.3). Times are in
// microseconds, sizes in bytes, windows and in-flight counts in segments.
const (
	SbfRTT          SubflowIntProp = iota // smoothed round-trip time (µs)
	SbfRTTAvg                             // long-term average RTT (µs)
	SbfRTTVar                             // RTT variance estimate (µs)
	SbfCwnd                               // congestion window (segments)
	SbfSkbsInFlight                       // unacknowledged segments in flight
	SbfQueued                             // segments queued but not yet sent
	SbfThroughput                         // delivery-rate estimate (bytes/s)
	SbfMSS                                // maximum segment size (bytes)
	SbfID                                 // stable subflow identifier
	SbfLostSkbs                           // segments currently marked lost
	SbfRTO                                // retransmission timeout (µs)
	SbfLinkQueued                         // bytes backlogged in the path's link transmit queue
	SbfXRTT                               // cross-connection smoothed RTT for this destination (µs); 0 when unknown
	SbfXLost                              // cross-connection loss events observed on this destination
	SbfXDelivered                         // cross-connection delivered bytes on this destination
	SbfXQuar                              // cross-connection quarantine signals recorded for this destination
	sbfIntPropCount
)

// NumSubflowIntProps is the number of integer subflow properties.
const NumSubflowIntProps = int(sbfIntPropCount)

var sbfIntPropNames = [...]string{
	SbfRTT:          "RTT",
	SbfRTTAvg:       "RTT_AVG",
	SbfRTTVar:       "RTT_VAR",
	SbfCwnd:         "CWND",
	SbfSkbsInFlight: "SKBS_IN_FLIGHT",
	SbfQueued:       "QUEUED",
	SbfThroughput:   "THROUGHPUT",
	SbfMSS:          "MSS",
	SbfID:           "ID",
	SbfLostSkbs:     "LOST_SKBS",
	SbfRTO:          "RTO",
	SbfLinkQueued:   "LINK_QUEUED",
	SbfXRTT:         "XRTT",
	SbfXLost:        "XLOST",
	SbfXDelivered:   "XDELIVERED",
	SbfXQuar:        "XQUAR",
}

// String returns the language-level spelling of the property.
func (p SubflowIntProp) String() string {
	if int(p) < len(sbfIntPropNames) {
		return sbfIntPropNames[p]
	}
	return fmt.Sprintf("SubflowIntProp(%d)", int(p))
}

// SubflowBoolProp enumerates boolean subflow properties.
type SubflowBoolProp int

// Boolean subflow properties.
const (
	SbfLossy        SubflowBoolProp = iota // in loss-recovery state
	SbfTSQThrottled                        // throttled by TCP small queues
	SbfIsBackup                            // flagged backup by the path manager
	sbfBoolPropCount
)

// NumSubflowBoolProps is the number of boolean subflow properties.
const NumSubflowBoolProps = int(sbfBoolPropCount)

var sbfBoolPropNames = [...]string{
	SbfLossy:        "LOSSY",
	SbfTSQThrottled: "TSQ_THROTTLED",
	SbfIsBackup:     "IS_BACKUP",
}

// String returns the language-level spelling of the property.
func (p SubflowBoolProp) String() string {
	if int(p) < len(sbfBoolPropNames) {
		return sbfBoolPropNames[p]
	}
	return fmt.Sprintf("SubflowBoolProp(%d)", int(p))
}

// PacketIntProp enumerates integer-valued packet properties.
type PacketIntProp int

// Integer packet properties.
const (
	PktSize       PacketIntProp = iota // payload size (bytes)
	PktSeq                             // data (meta-level) sequence number
	PktProp                            // application-set scheduling intent (§3.2)
	PktSentCount                       // number of transmissions so far
	PktAgeUS                           // time since enqueue (µs)
	PktLastSentUS                      // time since the most recent transmission (µs); -1 if never sent
	pktIntPropCount
)

// NumPacketIntProps is the number of integer packet properties.
const NumPacketIntProps = int(pktIntPropCount)

var pktIntPropNames = [...]string{
	PktSize:       "SIZE",
	PktSeq:        "SEQ",
	PktProp:       "PROP",
	PktSentCount:  "SENT_COUNT",
	PktAgeUS:      "AGE_US",
	PktLastSentUS: "LAST_SENT_US",
}

// String returns the language-level spelling of the property.
func (p PacketIntProp) String() string {
	if int(p) < len(pktIntPropNames) {
		return pktIntPropNames[p]
	}
	return fmt.Sprintf("PacketIntProp(%d)", int(p))
}

// PacketHandle opaquely identifies a packet for actions. Handles are
// only meaningful to the substrate that produced the environment.
type PacketHandle int64

// SubflowHandle opaquely identifies a subflow for actions.
type SubflowHandle int64

// PacketView is an immutable snapshot of one packet (§3.3: properties
// are immutable during a single scheduler execution).
type PacketView struct {
	Handle PacketHandle
	// Ints holds the integer properties, indexed by PacketIntProp.
	Ints [NumPacketIntProps]int64
	// SentOnMask has bit i set when the packet was transmitted on the
	// subflow with ID i.
	SentOnMask uint64
	// pos is the view's position in the queue whose storage holds it,
	// and mat that queue's materialization mark when it was filled.
	// Queue.At stamps both after its source fills the view, so PopPacket
	// runs in O(1) and refuses a view from an earlier bind, and the view
	// is filled at most once per bind.
	pos int32
	mat uint32
}

// SentOn reports whether the packet was ever transmitted on sbf.
//
//progmp:hotpath
//progmp:deterministic
func (p *PacketView) SentOn(sbf *SubflowView) bool {
	if p == nil || sbf == nil {
		return false
	}
	id := sbf.Ints[SbfID]
	if id < 0 || id >= MaxSubflows {
		return false
	}
	return p.SentOnMask&(1<<uint(id)) != 0
}

// SubflowView is an immutable snapshot of one subflow.
type SubflowView struct {
	Handle SubflowHandle
	Ints   [NumSubflowIntProps]int64
	Bools  [NumSubflowBoolProps]bool
	// RWndFreeBytes is how many additional payload bytes the peer's
	// receive window can accommodate; HAS_WINDOW_FOR compares against it.
	RWndFreeBytes int64
}

// HasWindowFor reports whether the receive window can accommodate p
// (HAS_WINDOW_FOR in the language). A nil packet has no window.
//
//progmp:hotpath
//progmp:deterministic
func (s *SubflowView) HasWindowFor(p *PacketView) bool {
	if s == nil || p == nil {
		return false
	}
	return p.Ints[PktSize] <= s.RWndFreeBytes
}

// ActionKind enumerates deferred side effects.
type ActionKind int

// Side-effecting operations collected during one execution (§4.1:
// "scheduler execution and the actual PUSH operations are internally
// decoupled with an action_queue").
const (
	ActionPop  ActionKind = iota // remove packet from a queue
	ActionPush                   // transmit packet on a subflow
	ActionDrop                   // discard a popped packet
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionPop:
		return "POP"
	case ActionPush:
		return "PUSH"
	case ActionDrop:
		return "DROP"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Action is one deferred side effect, recorded in program order.
type Action struct {
	Kind    ActionKind
	Queue   QueueID       // for ActionPop: source queue
	Packet  PacketHandle  // packet involved (zero value invalid)
	Subflow SubflowHandle // for ActionPush: target subflow
	// Site is the decision site inside the scheduler program that
	// recorded the action: the source line of the PUSH/POP/DROP on
	// every DSL back-end, 0 for native schedulers. Stamped from
	// Env.Site; consumed by decision tracing.
	Site int32
}
