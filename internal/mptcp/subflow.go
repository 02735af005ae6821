package mptcp

import (
	"fmt"
	"strconv"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/obs"
)

// txRecord is one subflow-level segment in its subflow's send window,
// from its first transmission until it is SACKed. Its sbfSeq is its
// index in the window; it names the meta-level segment it carries by
// sequence number and size, because the segment may be acknowledged
// through another subflow, and its Packet reused, while this copy is
// still in flight (Conn.win.at(metaSeq) is nil from then on). A SACKed
// slot is the zero txRecord.
type txRecord struct {
	metaSeq int64
	sentAt  time.Duration
	size    int32 // payload bytes; 0 only in a SACKed slot
	// sbfRetx marks subflow-level retransmissions (Karn's algorithm:
	// no RTT sample from retransmitted segments).
	sbfRetx bool
	// lost marks SACK/RTO loss suspicion; the segment was or will be
	// retransmitted on this subflow and reinjected via RQ.
	lost bool
	// queued marks a lost segment awaiting its paced subflow-level
	// retransmission (one per incoming ACK during recovery, like
	// NewReno), so bursts of drops do not blast retransmissions into a
	// still-full bottleneck queue.
	queued bool
}

// live reports whether the slot holds an un-SACKed segment.
func (r txRecord) live() bool { return r.size != 0 }

// SubflowConfig describes one subflow of a connection.
type SubflowConfig struct {
	Name string
	// Link carries data on Fwd and ACKs on Rev.
	Link *netsim.Link
	// Backup marks the subflow as backup/non-preferred (IS_BACKUP).
	Backup bool
	// StartAt is when the path manager establishes the subflow.
	StartAt time.Duration
}

// SubflowSpec describes one subflow of a connection's world: the path
// it runs over and how the path manager brings it up.
type SubflowSpec struct {
	Path    netsim.PathConfig
	Backup  bool
	StartAt time.Duration
}

// Dial builds a connection's world on eng: the connection, then per
// spec — in order — a link and the subflow over it, named after the
// path. It is the one place a world is wired (Conn.Reset rewires one in
// place). The order is part of the determinism contract: a link
// neither draws randomness nor schedules events, the subflow schedules
// its establish event, so equal specs on an equally seeded engine
// reproduce a trajectory exactly.
func Dial(eng *netsim.Engine, cfg Config, specs ...SubflowSpec) (*Conn, error) {
	conn := NewConn(eng, cfg)
	if err := conn.Reset(specs...); err != nil {
		return nil, err
	}
	return conn, nil
}

// dupThresh is the FACK-style reordering threshold: a segment is
// deemed lost once three segments above it have been SACKed.
const dupThresh = 3

// ackSize is the wire size of a pure ACK.
const ackSize = 40

// Subflow is one TCP subflow of an MPTCP connection (sender side).
type Subflow struct {
	id   int
	name string
	conn *Conn
	link *netsim.Link

	backup      bool
	established bool
	closed      bool
	inRecovery  bool // loss recovery until sbfSeq >= recoverEnd is SACKed
	// rtoBackoff counts the RTOs since the last SACK (loss recovery);
	// it shares the flags' word.
	rtoBackoff int32

	// Congestion control state (owned by the CC algorithm).
	cwnd     float64
	ssthresh float64

	// Transmission state. sent is the send window, indexed by sbfSeq:
	// its base is the oldest un-SACKed segment and its end the next
	// sbfSeq to send. nOut counts its live slots, nLost those marked lost.
	sent          ring[txRecord]
	nOut, nLost   int
	highestSacked int64 // highest SACKed sbfSeq (-1 initially)

	// RTT estimation (RFC 6298).
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	rttCount int64
	rttSum   time.Duration

	// Loss recovery.
	recoverEnd int64
	rtoTimer   netsim.Timer

	// qdiscBytes is this subflow's own unserialized backlog at the
	// link — the quantity the TCP-small-queues condition gates on.
	// On shared links each flow counts only its own bytes, as in the
	// kernel.
	qdiscBytes int64

	// Delivery-rate estimation: acked bytes over a sliding window.
	rate rateWindowSum

	// olia is per-subflow state for the OLIA congestion control.
	olia oliaState

	// destID is the shared-state store's interned destination id for
	// this subflow's path (-1 when no store is attached).
	destID int

	// sentCursor is this subflow's sent cursor in QU: once a program
	// has asked about the subflow (Conn.sentAsked), every QU packet
	// with a lower Seq was sent on it (see sent.go).
	sentCursor int64

	// Stats.
	BytesSent       int64
	PktsSent        int64
	Retransmissions int64

	// Observability handles (nil-safe no-ops when uninstrumented).
	mBytes *obs.Counter
	mRetx  *obs.Counter
	mRTOs  *obs.Counter
	mRTT   *obs.Histogram
}

type rateSample struct {
	at    time.Duration
	bytes int
}

// rateWindow is the sliding window for THROUGHPUT estimation.
const rateWindow = time.Second

// rateWindowSum is the byte total of the samples no older than
// rateWindow: a FIFO plus a running sum, so adding a sample, expiring
// old ones and reading the total are O(1) amortized.
type rateWindowSum struct {
	samples ring[rateSample]
	total   int // sum of their bytes
}

// add records bytes delivered at now.
func (w *rateWindowSum) add(now time.Duration, bytes int) {
	w.samples.pushBack(rateSample{at: now, bytes: bytes})
	w.total += bytes
}

// prune expires samples older than rateWindow at now.
func (w *rateWindowSum) prune(now time.Duration) {
	for w.samples.len() > 0 && w.samples.at(w.samples.base).at < now-rateWindow {
		w.total -= w.samples.popFront().bytes
	}
}

// Name returns the configured name.
func (s *Subflow) Name() string { return s.name }

// Established reports whether the handshake completed.
func (s *Subflow) Established() bool { return s.established }

// Closed reports whether the subflow was torn down.
func (s *Subflow) Closed() bool { return s.closed }

// Cwnd returns the congestion window in segments.
func (s *Subflow) Cwnd() float64 { return s.cwnd }

// SRTT returns the smoothed RTT estimate.
func (s *Subflow) SRTT() time.Duration { return s.srtt }

// SetBackup changes the backup flag (path-manager operation).
func (s *Subflow) SetBackup(b bool) { s.backup = b }

// Backup reports whether the subflow is marked backup/non-preferred.
func (s *Subflow) Backup() bool { return s.backup }

// usable reports whether the subflow can carry data now.
func (s *Subflow) usable() bool { return s.established && !s.closed }

// init makes s subflow id of c over cfg, as a new Subflow starts. Of
// what s held before, only the buffers its windows grew survive.
func (s *Subflow) init(c *Conn, id int, cfg SubflowConfig) {
	sent, samples := s.sent, s.rate.samples
	sent.reset()
	samples.reset()
	*s = Subflow{
		id:            id,
		name:          cfg.Name,
		conn:          c,
		link:          cfg.Link,
		backup:        cfg.Backup,
		cwnd:          initialCwnd,
		ssthresh:      1 << 20, // effectively unbounded until first loss
		sent:          sent,
		highestSacked: -1,
		rate:          rateWindowSum{samples: samples},
		destID:        -1,
	}
	if c.store != nil {
		// Destination identity is the subflow name: connections sharing a
		// path (same name) aggregate their observations into one record.
		name := cfg.Name
		if name == "" {
			name = fmt.Sprintf("sbf%d", id)
		}
		s.destID = c.store.DestID(name)
	}
	if reg := c.m.reg; reg != nil {
		s.instrument(reg)
	}
}

// instrument resolves the subflow's metric handles from reg, namespaced
// by the subflow name (falling back to the numeric id). The registry
// builds each name once (obs.Registry.Join).
func (s *Subflow) instrument(reg *obs.Registry) {
	key := s.name
	if key == "" {
		key = strconv.Itoa(s.id)
	}
	s.mBytes = reg.Counter(reg.Join("sbf.", key, ".bytes_sent"))
	s.mRetx = reg.Counter(reg.Join("sbf.", key, ".retransmits"))
	s.mRTOs = reg.Counter(reg.Join("sbf.", key, ".rtos"))
	s.mRTT = reg.Histogram(reg.Join("sbf.", key, ".rtt_us"))
}

// trace records a subflow-scoped event through the connection's tracer.
func (s *Subflow) trace(kind obs.EventKind, seq, aux int64, site int32) {
	s.conn.trace(kind, int32(s.id), seq, aux, site)
}

// synRetryBase is the initial SYN retransmission timeout (RFC 6298
// prescribes 1 s; it doubles per retry).
const synRetryBase = time.Second

// maxSynRetries bounds handshake attempts before the subflow gives up.
const maxSynRetries = 6

// Event kinds a subflow posts to itself through the engine and its
// link's paths (netsim.Handler). The words are, per kind:
//
//	evEstablish   —
//	evSerialized  wire bytes
//	evData        sbfSeq, metaSeq, payload size   (at the receiver)
//	evAck         sbfSeq, meta cumulative ACK, receive window
//	evRTO         —
//	evSynRetry    the attempt to send
//	evSyn         when the SYN left, its attempt  (at the receiver)
//	evSynAck      when the SYN left, its attempt
const (
	evEstablish uint8 = iota + 1
	evSerialized
	evData
	evAck
	evRTO
	evSynRetry
	evSyn
	evSynAck
)

// HandleEvent dispatches the subflow's typed events.
//
//progmp:hotpath
func (s *Subflow) HandleEvent(kind uint8, a, b, c int64) {
	switch kind {
	case evEstablish:
		//progmp:ignore hotpath once per subflow: the handshake schedules closures
		s.establish()
	case evSerialized:
		s.onSerialized(a)
	case evData:
		s.conn.receiver.onData(s, a, b, int(c))
	case evAck:
		s.handleAck(a, b, c)
	case evRTO:
		s.onRTO()
	case evSynRetry:
		s.sendSYN(int(a))
	case evSyn:
		s.link.Rev.SendMsg(ackSize, netsim.Msg{To: s, Kind: evSynAck, A: a, B: b})
	case evSynAck:
		s.onSynAck(time.Duration(a), int(b))
	}
}

// establish runs the handshake: a SYN over the forward path and its
// ACK over the reverse path seed the RTT estimate. Lost SYNs are
// retransmitted with exponential backoff.
func (s *Subflow) establish() { s.sendSYN(0) }

// sendSYN sends the handshake's SYN number attempt. Until the subflow
// is established rtoTimer is the SYN's retransmission timer, as the
// kernel's is: it names the latest attempt's retry.
func (s *Subflow) sendSYN(attempt int) {
	if s.closed || s.established {
		return
	}
	now := s.conn.eng.Now()
	s.rtoTimer = netsim.Timer{}
	if attempt < maxSynRetries {
		s.rtoTimer = s.conn.eng.Post(now+synRetryBase<<uint(attempt), s, evSynRetry, int64(attempt+1), 0, 0)
	}
	s.link.Fwd.SendMsg(ackSize, netsim.Msg{To: s, Kind: evSyn, A: int64(now), B: int64(attempt)})
}

// onSynAck completes the handshake with the ACK of the SYN sent at
// synAt as number attempt. That SYN's retry is stopped if it has not
// fired: before its deadline it is still the latest, the one rtoTimer
// names. Once it fired, rtoTimer names a later attempt's retry, which
// runs on and finds the subflow established.
func (s *Subflow) onSynAck(synAt time.Duration, attempt int) {
	if s.closed || s.established {
		return
	}
	now := s.conn.eng.Now()
	if attempt < maxSynRetries && now < synAt+synRetryBase<<uint(attempt) {
		s.rtoTimer.Stop()
	}
	s.rtoTimer = netsim.Timer{}
	s.established = true
	rttUS := s.rttSample(now - synAt)
	if st := s.conn.store; st != nil {
		st.RecordRTT(s.destID, rttUS)
	}
	s.conn.onSubflowEstablished(s)
}

// Close tears the subflow down. Outstanding segments that still have a
// copy in flight on another live subflow become reinjection candidates
// (RQ); segments whose only carrier was this subflow are no longer in
// flight anywhere and return to the sending queue Q, so even a
// scheduler that never services RQ cannot lose data ("packets must not
// be lost ... impossible by design", §3.3). The scheduler never
// observes a stale reference: closed subflows simply vanish from the
// next environment snapshot.
func (s *Subflow) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.established { // a SYN retry runs on, and finds the subflow closed
		s.rtoTimer.Stop()
	}
	for seq, end := s.sent.base, s.sent.end(); seq < end; seq++ {
		rec := s.sent.at(seq)
		if !rec.live() {
			continue
		}
		pkt := s.conn.win.at(rec.metaSeq)
		if pkt == nil { // acknowledged through another subflow
			continue
		}
		if s.conn.inFlightElsewhere(rec.metaSeq, s) {
			s.conn.addReinject(pkt)
		} else {
			s.conn.returnToSendQ(pkt)
		}
	}
	s.sent = ring[txRecord]{base: s.sent.end()}
	s.nOut, s.nLost = 0, 0
	s.conn.onSubflowClosed(s)
}

// transmit sends pkt on the subflow. It refuses (returning false) when
// the subflow is unusable or the peer's receive window has no room —
// the same guard the kernel applies below the scheduler.
//
//progmp:hotpath
func (s *Subflow) transmit(pkt *Packet) bool {
	if !s.usable() {
		return false
	}
	if !s.conn.withinWindow(pkt) {
		return false
	}
	s.conn.noteTransmitted(pkt)
	now, seq := s.conn.eng.Now(), s.sent.end()
	rec := txRecord{metaSeq: pkt.Seq, sentAt: now, size: int32(pkt.Size)}
	s.sent.pushBack(rec)
	s.nOut++
	s.sendRecord(seq, &rec)
	pkt.SentOnMask |= 1 << uint(s.id)
	pkt.SentCount++
	pkt.LastSentAt = now
	return true
}

// sendRecord puts segment seq, as its record rec names it, on the wire
// (first transmission or subflow-level retransmission) and maintains
// the subflow's own qdisc accounting; onSerialized undoes it when the
// packet has left the transmitter.
//
//progmp:hotpath
func (s *Subflow) sendRecord(seq int64, rec *txRecord) {
	size := int64(rec.size)
	s.PktsSent++
	s.BytesSent += size
	s.mBytes.Add(size)
	wire := size + 40 // 40 bytes of TCP/MPTCP headers
	accepted := s.link.Fwd.SendMsg(int(wire), netsim.Msg{
		To: s, Kind: evData, Serialized: evSerialized,
		A: seq, B: rec.metaSeq, C: size,
	})
	if accepted {
		s.qdiscBytes += wire
	}
	s.armRTO()
}

// onSerialized is the kernel's TSQ completion tasklet: the packet
// finished serializing, and when that takes the subflow's backlog back
// under the TSQ budget the scheduler runs again — on the
// throttled→unthrottled transition, not on every serialization.
func (s *Subflow) onSerialized(wire int64) {
	wasThrottled := s.tsqThrottled()
	s.qdiscBytes -= wire
	if wasThrottled && !s.tsqThrottled() && !s.closed && !s.conn.cfg.DisableTSQWake {
		s.conn.schedule()
	}
}

// retransmitRecord resends segment seq on this subflow (TCP's mandatory
// subflow-level retransmission; the subflow byte stream must stay
// complete regardless of meta-level reinjection).
func (s *Subflow) retransmitRecord(seq int64) {
	if s.closed {
		return
	}
	rec := s.sent.slot(seq)
	rec.sbfRetx = true
	rec.sentAt = s.conn.eng.Now()
	s.Retransmissions++
	s.mRetx.Add(1)
	s.sendRecord(seq, rec)
}

// handleAck processes a SACK for sbfSeq together with the piggybacked
// meta-level cumulative DATA_ACK and receive window.
//
//progmp:hotpath
func (s *Subflow) handleAck(sackSbfSeq, metaCumAck int64, rwnd int64) {
	if s.closed {
		return
	}
	if rec := s.sent.at(sackSbfSeq); rec.live() {
		// Retire the slot, and the SACKed slots below the oldest live one.
		*s.sent.slot(sackSbfSeq) = txRecord{}
		s.nOut--
		if rec.lost {
			s.nLost--
		}
		for s.sent.len() > 0 && !s.sent.slot(s.sent.base).live() {
			s.sent.popFront()
		}
		var rttUS int64 // Karn's rule: no sample from a retransmitted slot
		if !rec.sbfRetx {
			rttUS = s.rttSample(s.conn.eng.Now() - rec.sentAt)
		}
		if !rec.lost {
			prev := s.cwnd
			//progmp:ignore hotpath congestion control is pluggable; Reno, LIA (the default) and OLIA are hotpath roots of their own
			s.conn.cfg.CC.OnAck(s.conn, s)
			if s.cwnd != prev {
				s.trace(obs.EvCwnd, -1, int64(s.cwnd*1000), 0)
			}
		}
		s.recordDelivered(int(rec.size))
		if st := s.conn.store; st != nil {
			st.RecordAck(s.destID, rttUS, int64(rec.size))
		}
		s.rtoBackoff = 0
	}
	if sackSbfSeq > s.highestSacked {
		s.highestSacked = sackSbfSeq
	}
	if s.inRecovery && s.highestSacked >= s.recoverEnd-1 {
		s.inRecovery = false
	}
	// FACK-style loss detection: segments more than dupThresh below
	// the highest SACK are lost.
	s.detectLosses()
	// Pace one queued retransmission per acknowledgement.
	s.drainRetx()
	s.armRTO()
	s.conn.onAck(metaCumAck, rwnd, s)
}

// The loops below walk the window by sbfSeq up to an end fixed when
// they start, and hold no *txRecord across markLost or addReinject:
// both reach Conn.schedule, which may transmit on this subflow and
// re-house the window.

// detectLosses marks and retransmits segments overtaken by dupThresh
// SACKs above them.
func (s *Subflow) detectLosses() {
	for seq, end := s.sent.base, s.sent.end(); seq < end && s.highestSacked-seq >= dupThresh; seq++ {
		if rec := s.sent.at(seq); rec.live() && !rec.lost {
			s.markLost(seq, false)
		}
	}
}

// suspect marks the live segment rec lost.
func (s *Subflow) suspect(rec *txRecord) {
	if !rec.lost {
		rec.lost = true
		s.nLost++
	}
}

// markLost handles one lost segment: congestion response (once per
// episode), a paced subflow-level retransmission, and meta-level
// reinjection via RQ. The first loss of an episode retransmits
// immediately (fast retransmit); further losses queue and go out one
// per subsequent ACK (NewReno-style pacing).
func (s *Subflow) markLost(seq int64, isRTO bool) {
	rec := s.sent.slot(seq)
	s.suspect(rec)
	metaSeq := rec.metaSeq
	s.trace(obs.EvLoss, metaSeq, seq, 0)
	if st := s.conn.store; st != nil {
		st.RecordLoss(s.destID, 1)
	}
	first := false
	if !s.inRecovery {
		s.inRecovery = true
		s.recoverEnd = s.sent.end()
		first = true
		prev := s.cwnd
		if isRTO {
			//progmp:ignore hotpath congestion control is pluggable; Reno, LIA (the default) and OLIA are hotpath roots of their own
			s.conn.cfg.CC.OnRTO(s.conn, s)
		} else {
			//progmp:ignore hotpath congestion control is pluggable; Reno, LIA (the default) and OLIA are hotpath roots of their own
			s.conn.cfg.CC.OnLoss(s.conn, s)
		}
		if s.cwnd != prev {
			s.trace(obs.EvCwnd, -1, int64(s.cwnd*1000), 0)
		}
	}
	if first || isRTO {
		s.retransmitRecord(seq)
	} else {
		rec.queued = true
	}
	s.conn.addReinject(s.conn.win.at(metaSeq))
}

// drainRetx sends one paced retransmission: the oldest queued segment.
// A SACK zeroes its slot, so a SACKed segment is never queued. Only
// detectLosses queues, and only below its dupThresh bound; highestSacked
// never falls, so the scan stops at that same bound rather than walking
// a window of fast-retransmitted or RTO-suspected slots.
func (s *Subflow) drainRetx() {
	if s.nLost == 0 {
		return // only lost segments are queued
	}
	for seq := s.sent.base; seq < s.sent.end() && s.highestSacked-seq >= dupThresh; seq++ {
		if rec := s.sent.slot(seq); rec.queued {
			rec.queued = false
			s.retransmitRecord(seq)
			return
		}
	}
}

// armRTO (re)schedules the retransmission timer for the oldest
// un-SACKed segment, moving the pending timer event in place when
// there is one.
//
//progmp:hotpath
func (s *Subflow) armRTO() {
	if s.nOut == 0 || s.closed {
		s.rtoTimer.Stop()
		return
	}
	rto := s.currentRTO()
	deadline := s.sent.slot(s.sent.base).sentAt + rto
	now := s.conn.eng.Now()
	if deadline < now {
		deadline = now + rto
	}
	if moved, ok := s.conn.eng.Reschedule(s.rtoTimer, deadline); ok {
		s.rtoTimer = moved
		return
	}
	s.rtoTimer = s.conn.eng.Post(deadline, s, evRTO, 0, 0, 0)
}

// onRTO fires the retransmission timeout: collapse the window,
// retransmit the oldest segment, reinject everything un-SACKed.
func (s *Subflow) onRTO() {
	if s.closed || s.nOut == 0 {
		return
	}
	oldest := s.sent.base
	s.mRTOs.Add(1)
	s.trace(obs.EvRTO, s.sent.slot(oldest).metaSeq, int64(s.rtoBackoff), 0)
	// An RTO is the strongest path-degradation signal the sender sees;
	// publish it as a quarantine signal so other connections steering by
	// XQUAR avoid this destination.
	if st := s.conn.store; st != nil {
		st.RecordQuarantine(s.destID)
	}
	s.rtoBackoff++
	s.inRecovery = false // force a fresh congestion response
	s.markLost(oldest, true)
	for seq, end := oldest+1, s.sent.end(); seq < end; seq++ {
		rec := s.sent.slot(seq)
		if pkt := s.conn.win.at(rec.metaSeq); rec.live() && pkt != nil {
			s.suspect(rec)
			s.conn.addReinject(pkt)
		}
	}
	s.armRTO()
	s.conn.schedule()
}

// currentRTO applies exponential backoff to the base RTO.
func (s *Subflow) currentRTO() time.Duration {
	rto := s.rto
	if rto == 0 {
		rto = minRTO
	}
	for i := int32(0); i < s.rtoBackoff && i < 6; i++ {
		rto *= 2
	}
	return rto
}

// rttSample updates the RFC 6298 estimators and returns the sample in
// µs, for the caller to publish to the shared store.
func (s *Subflow) rttSample(sample time.Duration) int64 {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if s.rttCount == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rttCount++
	s.rttSum += sample
	s.mRTT.Observe(sample.Microseconds())
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	return sample.Microseconds()
}

// recordDelivered feeds the sliding-window delivery-rate estimator.
//
//progmp:hotpath
func (s *Subflow) recordDelivered(bytes int) {
	now := s.conn.eng.Now()
	s.rate.add(now, bytes)
	s.rate.prune(now)
}

// Throughput estimates the delivery rate in bytes/s over the sliding
// window.
//
//progmp:hotpath
func (s *Subflow) Throughput() int64 {
	s.rate.prune(s.conn.eng.Now())
	return int64(float64(s.rate.total) / rateWindow.Seconds())
}

// queuedSegments approximates segments handed to the subflow but not
// yet serialized onto the wire (the QUEUED property). Together with
// wireInFlight it partitions the un-SACKed segments, so
// CWND > SKBS_IN_FLIGHT + QUEUED gates on their total count
// without double counting.
func (s *Subflow) queuedSegments() int64 {
	q := s.qdiscBytes / mss
	if n := int64(s.nOut); q > n {
		q = n
	}
	return q
}

// wireInFlight is the number of un-SACKed segments already on the
// wire (the SKBS_IN_FLIGHT property).
func (s *Subflow) wireInFlight() int64 {
	return int64(s.nOut) - s.queuedSegments()
}

// tsqBudget is the TCP-small-queues transmit budget: roughly 1 ms of
// the pacing rate (cwnd·MSS/SRTT), floored at two segments — the
// kernel's tcp_small_queue_check shape.
func (s *Subflow) tsqBudget() int {
	floor := tsqSegments * mss
	if s.srtt <= 0 {
		return floor
	}
	pacing := s.cwnd * mss / s.srtt.Seconds() // bytes/s
	budget := int(pacing * 0.001)
	if budget < floor {
		budget = floor
	}
	return budget
}

// tsqThrottled models the TCP-small-queues condition: the subflow's
// own unserialized backlog exceeds the TSQ budget. The budget is never
// below its floor, so a backlog within the floor is decided without
// the pacing arithmetic; every trigger asks (Conn.facts).
func (s *Subflow) tsqThrottled() bool {
	return s.qdiscBytes > tsqSegments*mss && s.qdiscBytes > int64(s.tsqBudget())
}

// avgRTT returns the long-run mean RTT.
func (s *Subflow) avgRTT() time.Duration {
	if s.rttCount == 0 {
		return 0
	}
	return s.rttSum / time.Duration(s.rttCount)
}
