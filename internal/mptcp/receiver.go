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

// rxSeg is one received segment held in a reorder queue.
type rxSeg struct {
	metaSeq int64
	size    int
}

// sbfRx is per-subflow receive state.
type sbfRx struct {
	// nextExpected is the lowest sbfSeq not yet received.
	nextExpected int64
	// held buffers out-of-subflow-order segments (legacy mode only).
	held map[int64]rxSeg
	// receivedHigh tracks sbfSeqs >= nextExpected already seen, for
	// duplicate filtering in optimized mode.
	receivedHigh map[int64]bool
}

// Receiver models the MPTCP receiver: per-subflow receive queues, the
// meta-level out-of-order queue, in-order delivery to the application,
// cumulative DATA_ACK generation and receive-window accounting.
type Receiver struct {
	conn   *Conn
	mode   ReceiverMode
	rcvBuf int

	nextMetaSeq int64
	oooMeta     map[int64]rxSeg
	oooBytes    int
	// heldBytes is the payload buffered in the subflows' held maps
	// (legacy mode), kept beside oooBytes so rwnd is O(1).
	heldBytes int

	perSbf []*sbfRx

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
	return &Receiver{
		conn:    conn,
		mode:    mode,
		rcvBuf:  rcvBuf,
		oooMeta: make(map[int64]rxSeg),
	}
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

// NextMetaSeq exposes the in-order delivery frontier.
func (r *Receiver) NextMetaSeq() int64 { return r.nextMetaSeq }

func (r *Receiver) addSubflow() {
	r.perSbf = append(r.perSbf, &sbfRx{
		held:         make(map[int64]rxSeg),
		receivedHigh: make(map[int64]bool),
	})
}

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
	srx := r.perSbf[s.id]
	duplicate := sbfSeq < srx.nextExpected || srx.receivedHigh[sbfSeq]
	if !duplicate {
		//progmp:ignore hotpath amortized: receivedHigh is a sliding window of keys, deleted as nextExpected advances
		srx.receivedHigh[sbfSeq] = true
		switch r.mode {
		case ReceiverOptimized:
			r.metaProcess(metaSeq, size)
			r.advanceSbf(srx)
		case ReceiverLegacy:
			//progmp:ignore hotpath amortized: held is a sliding window of keys, deleted as the subflow gap closes
			srx.held[sbfSeq] = rxSeg{metaSeq: metaSeq, size: size}
			r.heldBytes += size
			if sbfSeq != srx.nextExpected {
				// A subflow-level gap keeps this segment in the
				// subflow out-of-order queue even though the meta
				// socket might already be able to use it.
				r.HeldByLegacy++
			}
			r.drainLegacy(srx)
		}
	} else {
		r.DuplicateSegments++
	}
	// Acknowledge with the (possibly advanced) cumulative DATA_ACK and
	// the current window.
	s.link.Rev.SendMsg(ackSize, netsim.Msg{To: s, Kind: evAck, A: sbfSeq, B: r.nextMetaSeq, C: r.rwnd()})
}

// advanceSbf advances the subflow contiguity pointer past received
// segments (bookkeeping shared by both modes).
func (r *Receiver) advanceSbf(srx *sbfRx) {
	for srx.receivedHigh[srx.nextExpected] {
		delete(srx.receivedHigh, srx.nextExpected)
		srx.nextExpected++
	}
}

// drainLegacy pushes in-subflow-order segments up to the meta socket.
func (r *Receiver) drainLegacy(srx *sbfRx) {
	for {
		seg, ok := srx.held[srx.nextExpected]
		if !ok {
			return
		}
		delete(srx.held, srx.nextExpected)
		r.heldBytes -= seg.size
		delete(srx.receivedHigh, srx.nextExpected)
		srx.nextExpected++
		r.metaProcess(seg.metaSeq, seg.size)
	}
}

// metaProcess inserts one segment into the meta-level reorder state
// and delivers any newly in-order prefix to the application.
func (r *Receiver) metaProcess(metaSeq int64, size int) {
	if metaSeq < r.nextMetaSeq {
		r.DuplicateSegments++
		return
	}
	if _, dup := r.oooMeta[metaSeq]; dup {
		r.DuplicateSegments++
		return
	}
	if metaSeq == r.nextMetaSeq {
		r.deliver(metaSeq, size)
		r.nextMetaSeq++
		for {
			seg, ok := r.oooMeta[r.nextMetaSeq]
			if !ok {
				break
			}
			delete(r.oooMeta, r.nextMetaSeq)
			r.oooBytes -= seg.size
			r.deliver(seg.metaSeq, seg.size)
			r.nextMetaSeq++
		}
		return
	}
	//progmp:ignore hotpath amortized: oooMeta is a sliding window of keys, deleted as the meta frontier advances
	r.oooMeta[metaSeq] = rxSeg{metaSeq: metaSeq, size: size}
	r.oooBytes += size
	r.mOOODepth.Observe(int64(len(r.oooMeta)))
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
