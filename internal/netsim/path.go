package netsim

import (
	"math"
	"time"
)

// RateFunc yields the path capacity in bytes per second at a virtual
// time. Rates must be positive; Path treats non-positive rates as a
// dead path (infinite serialization delay → tail drop).
type RateFunc func(at time.Duration) float64

// ConstantRate returns a fixed-capacity rate function.
func ConstantRate(bytesPerSec float64) RateFunc {
	return func(time.Duration) float64 { return bytesPerSec }
}

// Step is one segment of a piecewise-constant rate trace.
type Step struct {
	From time.Duration
	Rate float64 // bytes/s from From (inclusive) onward
}

// SteppedRate returns a piecewise-constant rate. Steps must be sorted
// by From; times before the first step use the first step's rate.
func SteppedRate(steps ...Step) RateFunc {
	return func(at time.Duration) float64 {
		if len(steps) == 0 {
			return 0
		}
		rate := steps[0].Rate
		for _, s := range steps {
			if at < s.From {
				break
			}
			rate = s.Rate
		}
		return rate
	}
}

// FluctuatingRate models WiFi-like capacity fluctuation: a sinusoid of
// the given amplitude and period around base, never below floor.
func FluctuatingRate(base, amplitude float64, period time.Duration, floor float64) RateFunc {
	return func(at time.Duration) float64 {
		phase := 2 * math.Pi * float64(at) / float64(period)
		r := base + amplitude*math.Sin(phase)
		if r < floor {
			r = floor
		}
		return r
	}
}

// LossModel decides per-packet loss. Implementations may keep state
// (e.g. Gilbert-Elliott); Lost is called once per transmitted packet in
// transmission order.
type LossModel interface {
	Lost(eng *Engine) bool
}

// NoLoss never drops packets.
type NoLoss struct{}

// Lost always reports false.
func (NoLoss) Lost(*Engine) bool { return false }

// BernoulliLoss drops each packet independently with probability P.
type BernoulliLoss struct{ P float64 }

// Lost samples the Bernoulli process.
func (b BernoulliLoss) Lost(eng *Engine) bool { return eng.Rand().Float64() < b.P }

// BlackoutLoss models a silent link death: from From onward every
// packet is lost while the link still accepts and serializes traffic —
// the "WiFi association silently gone" failure a path manager must
// detect from missing acknowledgements. A nonzero Until ends the
// blackout (exclusive), modelling a radio outage that recovers.
type BlackoutLoss struct {
	From  time.Duration
	Until time.Duration // 0 = the blackout never ends
}

// Lost drops everything while the blackout lasts.
func (b BlackoutLoss) Lost(eng *Engine) bool {
	now := eng.Now()
	return now >= b.From && (b.Until == 0 || now < b.Until)
}

// GilbertElliott is the classic two-state bursty loss model: in the
// Good state packets drop with probability PGood, in the Bad state with
// PBad; the chain switches states with the given probabilities per
// packet.
type GilbertElliott struct {
	PGood, PBad            float64
	PGoodToBad, PBadToGood float64
	bad                    bool
}

// Lost advances the chain one packet and samples loss.
func (g *GilbertElliott) Lost(eng *Engine) bool {
	rng := eng.Rand()
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else if rng.Float64() < g.PGoodToBad {
		g.bad = true
	}
	p := g.PGood
	if g.bad {
		p = g.PBad
	}
	return rng.Float64() < p
}

// PathConfig describes one unidirectional path.
type PathConfig struct {
	Name string
	// Rate is the link capacity; required.
	Rate RateFunc
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// DelayFn, when set, overrides Delay with a time-varying
	// propagation delay (e.g. WiFi RTT spikes).
	DelayFn func(at time.Duration) time.Duration
	// Jitter adds uniform random [0, Jitter) to each delivery.
	Jitter time.Duration
	// Loss drops packets after serialization (nil = no loss).
	Loss LossModel
	// QueueBytes bounds the drop-tail buffer ahead of the link
	// (0 = a generous default of 256 KiB).
	QueueBytes int
	// Next, when set, chains this path into another: packets that
	// survive this hop are re-sent on Next instead of being delivered.
	// Use it to model a fast access link feeding a shared network
	// bottleneck the sender's queue accounting cannot observe.
	Next *Path
	// RED, when set, applies Random Early Detection ahead of the
	// drop-tail limit: packets drop with a probability ramping from 0
	// at 3/16 of QueueBytes of backlog to redMaxP at 7/8 of it. RED
	// de-synchronizes losses across competing flows, the regime coupled
	// congestion control is analysed in.
	RED bool
	// DupProb delivers each surviving packet a second time, DupDelay
	// after the first copy (chaos: middlebox or retransmission-race
	// duplication the receiver must suppress).
	DupProb float64
	//progmp:ignore testonly TestTransferDigestGolden's chaos path sets 1 ms; 2 ms ships
	DupDelay time.Duration // default 2 ms
	// ReorderProb delays a surviving packet by an extra ReorderBy, so
	// later packets overtake it (chaos: severe reordering beyond what
	// uniform Jitter produces).
	ReorderProb float64
	ReorderBy   time.Duration // default 4x the propagation delay
}

// redMaxP is RED's drop probability at and above its upper threshold.
const redMaxP = 0.15

// Path is a unidirectional link with serialization, queueing,
// propagation, jitter and loss. Concurrent sends serialize FIFO.
type Path struct {
	eng *Engine
	cfg PathConfig
	// busyUntil is when the transmitter finishes its current backlog.
	busyUntil time.Duration
}

// NewPath builds a path on the engine.
func NewPath(eng *Engine, cfg PathConfig) *Path {
	p := &Path{eng: eng}
	p.reset(cfg)
	return p
}

// reset gives the path cfg and an idle transmitter, as NewPath builds
// it on the same engine.
func (p *Path) reset(cfg PathConfig) {
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = 256 << 10
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss{}
	}
	p.cfg, p.busyUntil = cfg, 0
}

// QueuedBytes reports the transmit backlog in bytes at the current
// rate (an approximation during rate changes).
//
//progmp:hotpath
//progmp:deterministic
func (p *Path) QueuedBytes() int {
	now := p.eng.Now()
	if p.busyUntil <= now {
		return 0
	}
	//progmp:ignore hotpath rate curves are pure arithmetic closures captured at path construction
	rate := p.cfg.Rate(now)
	if rate <= 0 {
		return p.cfg.QueueBytes
	}
	return int(float64(p.busyUntil-now) / float64(time.Second) * rate)
}

// Msg is what a typed send carries to the far end of a path: when the
// packet arrives, To receives (Kind, A, B, C). A nonzero Serialized
// additionally delivers (Serialized, size, 0, 0) to To when the packet
// finishes serializing onto the first hop's wire, regardless of loss.
// Senders use that for per-flow qdisc accounting — the basis of the
// TCP-small-queues condition, which counts only the flow's own bytes
// even on shared links.
type Msg struct {
	To         Handler
	A, B, C    int64
	Kind       uint8
	Serialized uint8
}

// flight is one packet between a path's transmitter and its arrival at
// the far end: the handler of its arrival event(s). Flights are
// recycled through the engine's free list (and its Pool, if shared).
type flight struct {
	p    *Path
	next *flight // free-list link
	msg  Msg
	size int
	// arrivals still to come: 2 while a duplicate is pending.
	refs int
}

// HandleEvent is the packet's arrival: hand it to the next hop when the
// path is chained, to the message's sink otherwise.
//
//progmp:hotpath
func (f *flight) HandleEvent(uint8, int64, int64, int64) {
	p, m, size := f.p, f.msg, f.size
	if f.refs--; f.refs == 0 {
		f.msg.To = nil
		f.next, p.eng.flights = p.eng.flights, f
	}
	if p.cfg.Next != nil {
		p.cfg.Next.SendMsg(size, m)
		return
	}
	//progmp:ignore hotpath dynamic call to the message's sink, a long-lived receiver whose per-segment handlers are hotpath roots of their own
	m.To.HandleEvent(m.Kind, m.A, m.B, m.C)
}

// callbacks adapts SendTracked's pair of funcs to one Handler.
type callbacks struct{ deliver, serialized func() }

const (
	cbDeliver uint8 = iota + 1
	cbSerialized
)

func (c *callbacks) HandleEvent(kind uint8, _, _, _ int64) {
	if kind == cbSerialized {
		c.serialized()
		return
	}
	c.deliver()
}

// Send transmits size bytes and calls deliver at the receiver when the
// packet survives queueing and loss. It returns false when the packet
// was tail-dropped at the local queue (the caller observes that only
// through missing ACKs, like a real stack).
func (p *Path) Send(size int, deliver func()) bool {
	return p.SendMsg(size, Msg{To: funcHandler(deliver)})
}

// SendTracked is Send with an additional serialized callback fired when
// the packet finishes serializing onto the wire (regardless of loss).
//
//progmp:ignore testonly only bench/ calls it (netsim.path_send_ns); ROADMAP item 3 retargets that probe
func (p *Path) SendTracked(size int, deliver, serialized func()) bool {
	if serialized == nil {
		return p.Send(size, deliver)
	}
	return p.SendMsg(size, Msg{
		To:   &callbacks{deliver: deliver, serialized: serialized},
		Kind: cbDeliver, Serialized: cbSerialized,
	})
}

// SendMsg transmits size bytes carrying m; Send and SendTracked are
// closure-taking adapters over it. It returns false when the packet was
// tail-dropped at the local queue. In steady state it allocates
// nothing: events and flights are recycled.
//
//progmp:hotpath
//progmp:deterministic
func (p *Path) SendMsg(size int, m Msg) bool {
	now := p.eng.Now()
	//progmp:ignore hotpath rate curves are pure arithmetic closures captured at path construction
	rate := p.cfg.Rate(now)
	if rate <= 0 {
		return false
	}
	backlog := p.QueuedBytes()
	if backlog+size > p.cfg.QueueBytes {
		return false
	}
	if minBytes := p.cfg.QueueBytes * 3 / 16; p.cfg.RED && backlog > minBytes {
		prob := redMaxP
		if maxBytes := p.cfg.QueueBytes * 7 / 8; backlog < maxBytes {
			prob = redMaxP * float64(backlog-minBytes) / float64(maxBytes-minBytes)
		}
		if p.eng.Rand().Float64() < prob {
			return false
		}
	}
	start := p.busyUntil
	if start < now {
		start = now
	}
	txTime := time.Duration(float64(size) / rate * float64(time.Second))
	if txTime <= 0 {
		txTime = time.Nanosecond
	}
	p.busyUntil = start + txTime
	if m.Serialized != 0 {
		p.eng.Post(p.busyUntil, m.To, m.Serialized, int64(size), 0, 0)
		m.Serialized = 0 // the first hop's business only
	}
	//progmp:ignore hotpath loss models are small value types or long-lived state machines drawing from the engine's source
	if p.cfg.Loss.Lost(p.eng) {
		return true // consumed link time, but never arrives
	}
	delay := p.cfg.Delay
	if p.cfg.DelayFn != nil {
		//progmp:ignore hotpath delay curves are pure arithmetic closures captured at path construction
		delay = p.cfg.DelayFn(now)
	}
	arrival := p.busyUntil + delay
	if p.cfg.Jitter > 0 {
		arrival += time.Duration(p.eng.Rand().Int63n(int64(p.cfg.Jitter)))
	}
	if p.cfg.ReorderProb > 0 && p.eng.Rand().Float64() < p.cfg.ReorderProb {
		extra := p.cfg.ReorderBy
		if extra <= 0 {
			extra = 4 * delay
		}
		arrival += extra
	}
	f := p.eng.flights
	if f != nil {
		p.eng.flights = f.next
	} else {
		f = p.eng.pool.flight()
	}
	*f = flight{p: p, msg: m, size: size, refs: 1}
	p.eng.Post(arrival, f, 0, 0, 0, 0)
	if p.cfg.DupProb > 0 && p.eng.Rand().Float64() < p.cfg.DupProb {
		dupDelay := p.cfg.DupDelay
		if dupDelay <= 0 {
			dupDelay = 2 * time.Millisecond
		}
		f.refs++
		p.eng.Post(arrival+dupDelay, f, 0, 0, 0, 0)
	}
	return true
}

// Link couples a forward (data) and reverse (ACK) path.
type Link struct {
	Fwd *Path
	Rev *Path
}

// ackRate is every link's reverse capacity: a 1 Gb/s ACK path.
var ackRate = ConstantRate(125e6)

// NewLink builds a symmetric-delay link with the forward config and a
// high-capacity reverse path for ACK traffic.
func NewLink(eng *Engine, cfg PathConfig) *Link {
	l := &Link{Fwd: &Path{eng: eng}, Rev: &Path{eng: eng}}
	l.Reset(cfg)
	return l
}

// Reset reconfigures the link as NewLink builds it from cfg on the same
// engine, both transmitters idle. The reverse path has cfg's delay and
// queue but no name and no loss model: ACK loss is modelled only when
// configured explicitly.
func (l *Link) Reset(cfg PathConfig) {
	rev := cfg
	rev.Name, rev.Loss, rev.Rate = "", nil, ackRate
	l.Fwd.reset(cfg)
	l.Rev.reset(rev)
}
