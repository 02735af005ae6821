package mptcp

import (
	"time"

	"progmp/internal/netsim"
	"progmp/internal/obs"
)

// ReceiverMode selects the receiver-side packet-handling behaviour.
type ReceiverMode int

const (
	// ReceiverOptimized applies the §4.2 changes: every arriving
	// packet is considered for meta-level in-order delivery
	// immediately, regardless of subflow-level gaps.
	ReceiverOptimized ReceiverMode = iota
	// ReceiverLegacy reproduces the pre-paper kernel behaviour: only
	// in-subflow-order packets are pushed from the subflow to the meta
	// socket, so a subflow-level gap can delay meta-level in-order
	// data that has already arrived.
	ReceiverLegacy
)

// String names the mode.
func (m ReceiverMode) String() string {
	if m == ReceiverLegacy {
		return "legacy"
	}
	return "optimized"
}

// rxSeg is one received segment in a reorder window; the zero value is
// a sequence number not received yet.
type rxSeg struct {
	metaSeq  int64
	size     int
	received bool
}

// Receiver models the MPTCP receiver: per-subflow receive queues, the
// meta-level out-of-order queue, in-order delivery to the application,
// cumulative DATA_ACK generation and receive-window accounting.
type Receiver struct {
	conn   *Conn
	mode   ReceiverMode
	rcvBuf int

	// ooo is the meta-level reorder window: its base is the in-order
	// delivery frontier, and it holds the oooSegs segments (oooBytes of
	// payload) that arrived above it.
	ooo      ring[rxSeg]
	oooSegs  int
	oooBytes int
	// heldBytes is the payload the legacy receiver buffers in the
	// subflows' windows, kept beside oooBytes so rwnd is O(1).
	heldBytes int

	// perSbf holds one receive window per subflow, indexed by sbfSeq: its
	// base is the lowest sbfSeq not yet received, and it marks the
	// segments received above that for duplicate filtering — in legacy
	// mode it also buffers them, out of subflow order, until the gap
	// closes.
	perSbf []ring[rxSeg]

	onDeliver func(seq int64, size int, at time.Duration)

	// Stats.
	DeliveredBytes    int64
	DeliveredSegments int64
	DuplicateSegments int64
	// HeldByLegacy counts segments buffered behind a subflow-level gap
	// by the legacy two-level queueing (§4.2); the optimized receiver
	// never holds such segments back from the meta socket.
	HeldByLegacy int64

	// Observability handles (nil-safe no-ops when uninstrumented).
	mDelivBytes *obs.Counter
	mDelivSegs  *obs.Counter
	mOOODepth   *obs.Histogram
}

func newReceiver(conn *Conn, mode ReceiverMode, rcvBuf int) *Receiver {
	return &Receiver{conn: conn, mode: mode, rcvBuf: rcvBuf}
}

// Mode returns the configured receiver mode.
func (r *Receiver) Mode() ReceiverMode { return r.mode }

// instrument resolves the receiver's metric handles from reg.
func (r *Receiver) instrument(reg *obs.Registry) {
	r.mDelivBytes = reg.Counter("recv.delivered_bytes")
	r.mDelivSegs = reg.Counter("recv.delivered_segments")
	r.mOOODepth = reg.Histogram("recv.ooo_depth")
}

// OnDeliver registers the in-order delivery callback (the application
// read path), replacing any previous one. Use AddDeliveryHook to
// observe deliveries without claiming the slot.
func (r *Receiver) OnDeliver(fn func(seq int64, size int, at time.Duration)) {
	r.onDeliver = fn
}

// AddDeliveryHook chains fn onto the delivery callback: any previously
// registered callback (OnDeliver consumer or earlier hook) still runs,
// then fn. It lets observers — the fleet engine's latency probes, the
// ConservationChecker — coexist on the single delivery path without
// silently displacing each other.
func (r *Receiver) AddDeliveryHook(fn func(seq int64, size int, at time.Duration)) {
	if fn == nil {
		return
	}
	prev := r.onDeliver
	if prev == nil {
		r.onDeliver = fn
		return
	}
	r.onDeliver = func(seq int64, size int, at time.Duration) {
		prev(seq, size, at)
		fn(seq, size, at)
	}
}

func (r *Receiver) addSubflow() { r.perSbf = append(r.perSbf, ring[rxSeg]{}) }

// rwnd is the advertised receive window: buffer minus bytes held in
// reorder queues (the in-order application consumes immediately).
func (r *Receiver) rwnd() int64 {
	w := int64(r.rcvBuf - r.oooBytes - r.heldBytes)
	if w < 0 {
		w = 0
	}
	return w
}

// onData handles one segment arriving on subflow s and returns the
// acknowledgement through the reverse path.
//
//progmp:hotpath
func (r *Receiver) onData(s *Subflow, sbfSeq, metaSeq int64, size int) {
	win := &r.perSbf[s.id]
	seg := rxSeg{metaSeq: metaSeq, size: size, received: true}
	switch {
	case sbfSeq < win.base || win.at(sbfSeq).received:
		r.DuplicateSegments++
	case r.mode == ReceiverOptimized:
		r.metaProcess(seg)
		if sbfSeq != win.base {
			win.set(sbfSeq, seg)
			break
		}
		// In subflow order: the contiguity point moves past it and
		// past what was received above it.
		win.popFront()
		for win.at(win.base).received {
			win.popFront()
		}
	case sbfSeq != win.base:
		// A subflow-level gap keeps this segment in the subflow
		// out-of-order queue even though the meta socket might
		// already be able to use it.
		win.set(sbfSeq, seg)
		r.heldBytes += size
		r.HeldByLegacy++
	default:
		// In subflow order: push it, and the held segments the gap
		// kept back, up to the meta socket.
		win.popFront()
		r.metaProcess(seg)
		for next := win.at(win.base); next.received; next = win.at(win.base) {
			win.popFront()
			r.heldBytes -= next.size
			r.metaProcess(next)
		}
	}
	// Acknowledge with the (possibly advanced) cumulative DATA_ACK and
	// the current window.
	s.link.Rev.SendMsg(ackSize, netsim.Msg{To: s, Kind: evAck, A: sbfSeq, B: r.ooo.base, C: r.rwnd()})
}

// metaProcess inserts one segment into the meta-level reorder state
// and delivers any newly in-order prefix to the application.
func (r *Receiver) metaProcess(seg rxSeg) {
	if seg.metaSeq < r.ooo.base || r.ooo.at(seg.metaSeq).received {
		r.DuplicateSegments++
		return
	}
	if seg.metaSeq != r.ooo.base {
		r.ooo.set(seg.metaSeq, seg)
		r.oooSegs++
		r.oooBytes += seg.size
		r.mOOODepth.Observe(int64(r.oooSegs))
		return
	}
	r.deliver(seg.metaSeq, seg.size)
	r.ooo.popFront()
	for next := r.ooo.at(r.ooo.base); next.received; next = r.ooo.at(r.ooo.base) {
		r.oooSegs--
		r.oooBytes -= next.size
		r.deliver(next.metaSeq, next.size)
		r.ooo.popFront()
	}
}

func (r *Receiver) deliver(seq int64, size int) {
	r.DeliveredBytes += int64(size)
	r.DeliveredSegments++
	r.mDelivBytes.Add(int64(size))
	r.mDelivSegs.Add(1)
	r.conn.trace(obs.EvDeliver, -1, seq, int64(size), 0)
	if r.onDeliver != nil {
		//progmp:ignore hotpath the application's read callback: what it does with the bytes is its own cost
		r.onDeliver(seq, size, r.conn.eng.Now())
	}
}
