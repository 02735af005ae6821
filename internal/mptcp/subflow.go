package mptcp

import (
	"fmt"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/obs"
)

// txRecord tracks one subflow-level segment until acknowledged.
type txRecord struct {
	pkt    *Packet
	sbfSeq int64
	sentAt time.Duration
	size   int
	// sbfRetx marks subflow-level retransmissions (Karn's algorithm:
	// no RTT sample from retransmitted segments).
	sbfRetx bool
	// lost marks SACK/RTO loss suspicion; the segment was or will be
	// retransmitted on this subflow and reinjected via RQ.
	lost bool
}

// SubflowConfig describes one subflow of a connection.
type SubflowConfig struct {
	Name string
	// Link carries data on Fwd and ACKs on Rev.
	Link *netsim.Link
	// Backup marks the subflow as backup/non-preferred (IS_BACKUP).
	Backup bool
	// StartAt is when the path manager establishes the subflow.
	StartAt time.Duration
	// InitialCwnd in segments (default 10, like Linux).
	InitialCwnd float64
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
// path. It is the one place a world is wired. The order is part of the
// determinism contract: NewLink neither draws randomness nor schedules
// events, AddSubflow schedules the establish event, so equal specs on
// an equally seeded engine reproduce a trajectory exactly.
func Dial(eng *netsim.Engine, cfg Config, specs ...SubflowSpec) (*Conn, error) {
	conn := NewConn(eng, cfg)
	for _, sp := range specs {
		if _, err := conn.AddSubflow(SubflowConfig{
			Name:    sp.Path.Name,
			Link:    netsim.NewLink(eng, sp.Path),
			Backup:  sp.Backup,
			StartAt: sp.StartAt,
		}); err != nil {
			return nil, err
		}
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

	// Congestion control state (owned by the CC algorithm).
	cwnd     float64
	ssthresh float64

	// Transmission state.
	nextSbfSeq    int64
	outstanding   []*txRecord // un-SACKed records, ordered by sbfSeq
	highestSacked int64       // highest SACKed sbfSeq (-1 initially)

	// RTT estimation (RFC 6298).
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	rttCount int64
	rttSum   time.Duration

	// Loss recovery.
	inRecovery bool
	recoverEnd int64 // leave recovery once sbfSeq >= recoverEnd SACKed
	rtoTimer   *netsim.Timer
	rtoBackoff int

	// retxPending queues records marked lost awaiting their paced
	// subflow-level retransmission (one per incoming ACK during
	// recovery, like NewReno) so bursts of drops do not blast
	// retransmissions into a still-full bottleneck queue.
	retxPending []*txRecord

	// qdiscBytes is this subflow's own unserialized backlog at the
	// link — the quantity the TCP-small-queues condition gates on.
	// On shared links each flow counts only its own bytes, as in the
	// kernel.
	qdiscBytes int64

	// Delivery-rate estimation: acked-bytes samples in a sliding window.
	rateSamples []rateSample

	// olia is per-subflow state for the OLIA congestion control.
	olia oliaState

	// destID is the shared-state store's interned destination id for
	// this subflow's path (-1 when no store is attached).
	destID int

	// Stats.
	BytesSent       int64
	PktsSent        int64
	Retransmissions int64
	LossEpisodes    int64
	RTOs            int64

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

// ID returns the stable subflow id (the SentOnMask bit index).
func (s *Subflow) ID() int { return s.id }

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

// InFlight returns the number of un-SACKed segments.
func (s *Subflow) InFlight() int { return len(s.outstanding) }

// SetBackup changes the backup flag (path-manager operation).
func (s *Subflow) SetBackup(b bool) { s.backup = b }

// Backup reports whether the subflow is marked backup/non-preferred.
func (s *Subflow) Backup() bool { return s.backup }

// usable reports whether the subflow can carry data now.
func (s *Subflow) usable() bool { return s.established && !s.closed }

// instrument resolves the subflow's metric handles from reg, namespaced
// by the subflow name (falling back to the numeric id).
func (s *Subflow) instrument(reg *obs.Registry) {
	key := s.name
	if key == "" {
		key = fmt.Sprintf("%d", s.id)
	}
	s.mBytes = reg.Counter("sbf." + key + ".bytes_sent")
	s.mRetx = reg.Counter("sbf." + key + ".retransmits")
	s.mRTOs = reg.Counter("sbf." + key + ".rtos")
	s.mRTT = reg.Histogram("sbf." + key + ".rtt_us")
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

// establish runs the handshake: a SYN over the forward path and its
// ACK over the reverse path seed the RTT estimate. Lost SYNs are
// retransmitted with exponential backoff.
func (s *Subflow) establish() { s.sendSYN(0) }

func (s *Subflow) sendSYN(attempt int) {
	if s.closed || s.established {
		return
	}
	synAt := s.conn.eng.Now()
	var retry *netsim.Timer
	if attempt < maxSynRetries {
		retry = s.conn.eng.After(synRetryBase<<uint(attempt), func() {
			s.sendSYN(attempt + 1)
		})
	}
	s.link.Fwd.Send(ackSize, func() {
		s.link.Rev.Send(ackSize, func() {
			if s.closed || s.established {
				return
			}
			if retry != nil {
				retry.Stop()
			}
			s.established = true
			s.rttSample(s.conn.eng.Now() - synAt)
			s.conn.onSubflowEstablished(s)
		})
	})
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
	if s.rtoTimer != nil {
		s.rtoTimer.Stop()
		s.rtoTimer = nil
	}
	for _, rec := range s.outstanding {
		if rec.pkt.MetaAcked {
			continue
		}
		if s.conn.inFlightElsewhere(rec.pkt, s) {
			s.conn.addReinject(rec.pkt)
		} else {
			s.conn.returnToSendQ(rec.pkt)
		}
	}
	s.outstanding = nil
	s.retxPending = nil
	s.conn.onSubflowClosed(s)
}

// transmit sends pkt on the subflow. It refuses (returning false) when
// the subflow is unusable or the peer's receive window has no room —
// the same guard the kernel applies below the scheduler.
func (s *Subflow) transmit(pkt *Packet) bool {
	if !s.usable() {
		return false
	}
	if !s.conn.withinWindow(pkt) {
		return false
	}
	s.conn.noteTransmitted(pkt)
	rec := &txRecord{
		pkt:    pkt,
		sbfSeq: s.nextSbfSeq,
		sentAt: s.conn.eng.Now(),
		size:   pkt.Size,
	}
	s.nextSbfSeq++
	s.outstanding = append(s.outstanding, rec)
	s.sendRecord(rec)
	pkt.SentOnMask |= 1 << uint(s.id)
	pkt.SentCount++
	pkt.LastSentAt = rec.sentAt
	return true
}

// sendRecord puts one record on the wire (first transmission or
// subflow-level retransmission) and maintains the subflow's own qdisc
// accounting: when the packet finishes serializing and the backlog
// falls back under the TSQ budget, the scheduler runs again — the
// kernel's TSQ completion tasklet.
func (s *Subflow) sendRecord(rec *txRecord) {
	s.PktsSent++
	s.BytesSent += int64(rec.size)
	s.mBytes.Add(int64(rec.size))
	sbfSeq, metaSeq, size := rec.sbfSeq, rec.pkt.Seq, rec.size
	wire := int64(size + 40) // 40 bytes of TCP/MPTCP headers
	accepted := s.link.Fwd.SendTracked(int(wire), func() {
		s.conn.receiver.onData(s, sbfSeq, metaSeq, size)
	}, func() {
		wasThrottled := s.tsqThrottled()
		s.qdiscBytes -= wire
		// The kernel's TSQ tasklet re-enters the scheduler when the
		// flag clears — on the throttled→unthrottled transition, not
		// on every serialization.
		if wasThrottled && !s.tsqThrottled() && !s.closed && !s.conn.cfg.DisableTSQWake {
			s.conn.schedule()
		}
	})
	if accepted {
		s.qdiscBytes += wire
	}
	s.armRTO()
}

// retransmitRecord resends rec on this subflow (TCP's mandatory
// subflow-level retransmission; the subflow byte stream must stay
// complete regardless of meta-level reinjection).
func (s *Subflow) retransmitRecord(rec *txRecord) {
	if s.closed {
		return
	}
	rec.sbfRetx = true
	rec.sentAt = s.conn.eng.Now()
	s.Retransmissions++
	s.mRetx.Add(1)
	s.sendRecord(rec)
}

// handleAck processes a SACK for sbfSeq together with the piggybacked
// meta-level cumulative DATA_ACK and receive window.
func (s *Subflow) handleAck(sackSbfSeq, metaCumAck int64, rwnd int64) {
	if s.closed {
		return
	}
	// Locate and remove the SACKed record.
	var rec *txRecord
	for i, cand := range s.outstanding {
		if cand.sbfSeq == sackSbfSeq {
			rec = cand
			s.outstanding = append(s.outstanding[:i], s.outstanding[i+1:]...)
			break
		}
	}
	if rec != nil {
		if !rec.sbfRetx {
			s.rttSample(s.conn.eng.Now() - rec.sentAt)
		}
		if !rec.lost {
			prev := s.cwnd
			s.conn.cc.OnAck(s.conn, s)
			if s.cwnd != prev {
				s.trace(obs.EvCwnd, -1, int64(s.cwnd*1000), 0)
			}
		}
		s.recordDelivered(rec.size)
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

// detectLosses marks and retransmits records overtaken by dupThresh
// SACKs above them.
func (s *Subflow) detectLosses() {
	for _, rec := range s.outstanding {
		if rec.lost {
			continue
		}
		if s.highestSacked-rec.sbfSeq >= dupThresh {
			s.markLost(rec, false)
		}
	}
}

// markLost handles one lost record: congestion response (once per
// episode), a paced subflow-level retransmission, and meta-level
// reinjection via RQ. The first loss of an episode retransmits
// immediately (fast retransmit); further losses queue and go out one
// per subsequent ACK (NewReno-style pacing).
func (s *Subflow) markLost(rec *txRecord, isRTO bool) {
	rec.lost = true
	s.trace(obs.EvLoss, rec.pkt.Seq, rec.sbfSeq, 0)
	if st := s.conn.store; st != nil {
		st.RecordLoss(s.destID, 1)
	}
	first := false
	if !s.inRecovery {
		s.inRecovery = true
		s.recoverEnd = s.nextSbfSeq
		s.LossEpisodes++
		first = true
		prev := s.cwnd
		if isRTO {
			s.conn.cc.OnRTO(s.conn, s)
		} else {
			s.conn.cc.OnLoss(s.conn, s)
		}
		if s.cwnd != prev {
			s.trace(obs.EvCwnd, -1, int64(s.cwnd*1000), 0)
		}
	}
	if first || isRTO {
		s.retransmitRecord(rec)
	} else {
		s.retxPending = append(s.retxPending, rec)
	}
	if !rec.pkt.MetaAcked {
		s.conn.addReinject(rec.pkt)
	}
}

// drainRetx sends one paced retransmission, skipping records that were
// SACKed or whose data was meta-acknowledged in the meantime.
func (s *Subflow) drainRetx() {
	for len(s.retxPending) > 0 {
		rec := s.retxPending[0]
		s.retxPending = s.retxPending[1:]
		still := false
		for _, o := range s.outstanding {
			if o == rec {
				still = true
				break
			}
		}
		if !still {
			continue
		}
		s.retransmitRecord(rec)
		return
	}
}

// armRTO (re)schedules the retransmission timer for the oldest
// outstanding record.
func (s *Subflow) armRTO() {
	if s.rtoTimer != nil {
		s.rtoTimer.Stop()
		s.rtoTimer = nil
	}
	if len(s.outstanding) == 0 || s.closed {
		return
	}
	oldest := s.outstanding[0]
	rto := s.currentRTO()
	deadline := oldest.sentAt + rto
	now := s.conn.eng.Now()
	if deadline < now {
		deadline = now + rto
	}
	s.rtoTimer = s.conn.eng.At(deadline, s.onRTO)
}

// onRTO fires the retransmission timeout: collapse the window,
// retransmit the oldest record, reinject everything outstanding.
func (s *Subflow) onRTO() {
	if s.closed || len(s.outstanding) == 0 {
		return
	}
	s.RTOs++
	s.mRTOs.Add(1)
	s.trace(obs.EvRTO, s.outstanding[0].pkt.Seq, int64(s.rtoBackoff), 0)
	// An RTO is the strongest path-degradation signal the sender sees;
	// publish it as a quarantine signal so other connections steering by
	// XQUAR avoid this destination.
	if st := s.conn.store; st != nil {
		st.RecordQuarantine(s.destID)
	}
	s.rtoBackoff++
	s.inRecovery = false // force a fresh congestion response
	oldest := s.outstanding[0]
	s.markLost(oldest, true)
	for _, rec := range s.outstanding[1:] {
		if !rec.pkt.MetaAcked {
			rec.lost = true
			s.conn.addReinject(rec.pkt)
		}
	}
	s.armRTO()
	s.conn.schedule()
}

// currentRTO applies exponential backoff to the base RTO.
func (s *Subflow) currentRTO() time.Duration {
	rto := s.rto
	if rto == 0 {
		rto = s.conn.cfg.MinRTO
	}
	for i := 0; i < s.rtoBackoff && i < 6; i++ {
		rto *= 2
	}
	return rto
}

// rttSample updates the RFC 6298 estimators.
func (s *Subflow) rttSample(sample time.Duration) {
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
	if st := s.conn.store; st != nil {
		st.RecordRTT(s.destID, sample.Microseconds())
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.conn.cfg.MinRTO {
		s.rto = s.conn.cfg.MinRTO
	}
}

// recordDelivered feeds the sliding-window delivery-rate estimator.
func (s *Subflow) recordDelivered(bytes int) {
	now := s.conn.eng.Now()
	s.rateSamples = append(s.rateSamples, rateSample{at: now, bytes: bytes})
	s.pruneRateSamples(now)
	if st := s.conn.store; st != nil {
		st.RecordDelivered(s.destID, int64(bytes))
	}
}

func (s *Subflow) pruneRateSamples(now time.Duration) {
	cut := 0
	for cut < len(s.rateSamples) && s.rateSamples[cut].at < now-rateWindow {
		cut++
	}
	s.rateSamples = s.rateSamples[cut:]
}

// Throughput estimates the delivery rate in bytes/s over the sliding
// window.
func (s *Subflow) Throughput() int64 {
	now := s.conn.eng.Now()
	s.pruneRateSamples(now)
	var total int
	for _, smp := range s.rateSamples {
		total += smp.bytes
	}
	return int64(float64(total) / rateWindow.Seconds())
}

// queuedSegments approximates segments handed to the subflow but not
// yet serialized onto the wire (the QUEUED property). Together with
// wireInFlight it partitions the outstanding segments, so
// CWND > SKBS_IN_FLIGHT + QUEUED gates on the total outstanding count
// without double counting.
func (s *Subflow) queuedSegments() int64 {
	q := s.qdiscBytes / int64(s.conn.cfg.MSS)
	if n := int64(len(s.outstanding)); q > n {
		q = n
	}
	return q
}

// wireInFlight is the number of outstanding segments already on the
// wire (the SKBS_IN_FLIGHT property).
func (s *Subflow) wireInFlight() int64 {
	return int64(len(s.outstanding)) - s.queuedSegments()
}

// tsqBudget is the TCP-small-queues transmit budget: roughly 1 ms of
// the pacing rate (cwnd·MSS/SRTT), floored at two segments — the
// kernel's tcp_small_queue_check shape.
func (s *Subflow) tsqBudget() int {
	floor := s.conn.cfg.TSQLimitBytes
	if s.srtt <= 0 {
		return floor
	}
	pacing := s.cwnd * float64(s.conn.cfg.MSS) / s.srtt.Seconds() // bytes/s
	budget := int(pacing * 0.001)
	if budget < floor {
		budget = floor
	}
	return budget
}

// tsqThrottled models the TCP-small-queues condition: the subflow's
// own unserialized backlog exceeds the TSQ budget.
func (s *Subflow) tsqThrottled() bool {
	return s.qdiscBytes > int64(s.tsqBudget())
}

// lostPending counts records currently marked lost and un-SACKed.
func (s *Subflow) lostPending() int64 {
	var n int64
	for _, rec := range s.outstanding {
		if rec.lost {
			n++
		}
	}
	return n
}

// avgRTT returns the long-run mean RTT.
func (s *Subflow) avgRTT() time.Duration {
	if s.rttCount == 0 {
		return 0
	}
	return s.rttSum / time.Duration(s.rttCount)
}

// InRecovery exposes the loss-recovery state (tests/diagnostics).
func (s *Subflow) InRecovery() bool { return s.inRecovery }

// TSQForTest exposes the TSQ condition (tests/diagnostics).
func (s *Subflow) TSQForTest() bool { return s.tsqThrottled() }
