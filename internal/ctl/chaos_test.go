package ctl

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig tunes a ChaosProxy: seeded, wire-level fault injection
// for the control plane, the ctl analogue of the netsim fault
// injectors (loss models, FlapRate, duplication, reordering) for the
// data plane. Each accepted connection rolls a fate from the seeded
// stream — pass through clean, die abruptly after a random life, stall
// (the proxy keeps the sockets open but stops forwarding, the shape of
// a peer that wedges without closing), or forward server→client
// traffic at a crawl (a subscriber that cannot keep up). Probabilities
// are evaluated in order (drop, stall, slow); whatever is left is a
// clean connection.
type ChaosConfig struct {
	Seed int64

	// DropProb is the probability a connection is killed (both sides
	// closed) after a uniform [MinLife, MaxLife) delay.
	DropProb float64
	// StallProb is the probability a connection stalls after a uniform
	// [MinLife, MaxLife) delay: forwarding stops in both directions but
	// the sockets stay open, so only deadlines can free the peers.
	StallProb float64
	// SlowProb is the probability a connection's server→client leg is
	// throttled to SlowBytesPerSec from the start.
	SlowProb float64

	// MinLife/MaxLife bound the delay before a drop or stall fires
	// (defaults 10 ms / 200 ms).
	MinLife time.Duration
	MaxLife time.Duration
	// SlowBytesPerSec is the slow-leg throughput (default 4096).
	SlowBytesPerSec int
}

func (c *ChaosConfig) applyDefaults() {
	if c.MinLife == 0 {
		c.MinLife = 10 * time.Millisecond
	}
	if c.MaxLife == 0 {
		c.MaxLife = 200 * time.Millisecond
	}
	if c.SlowBytesPerSec == 0 {
		c.SlowBytesPerSec = 4096
	}
}

// ChaosProxy sits between control-plane clients and a Server, injecting
// the faults described by ChaosConfig. It listens on its own address;
// point clients at Addr() and the proxy at the real server. Fates are
// drawn from a seeded generator in accept order, so a single-client
// test sequence is reproducible for a given seed.
type ChaosProxy struct {
	network string
	target  string
	ln      net.Listener
	cfg     ChaosConfig

	// Fault counts, for assertions and logs.
	Drops   atomic.Int64
	Stalls  atomic.Int64
	Slows   atomic.Int64
	Accepts atomic.Int64

	rmu sync.Mutex
	rng *rand.Rand

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewChaosProxy starts a proxy in front of the server at network/target
// (the same network/addr pair Dial takes), listening on an address of
// the same network family. Close it to stop the listener and every
// proxied connection.
func NewChaosProxy(network, target string, cfg ChaosConfig) (*ChaosProxy, error) {
	cfg.applyDefaults()
	var laddr string
	switch network {
	case "unix":
		laddr = target + ".chaos"
	case "tcp":
		laddr = "127.0.0.1:0"
	default:
		return nil, fmt.Errorf("ctl: chaos proxy: unsupported network %q", network)
	}
	ln, err := net.Listen(network, laddr)
	if err != nil {
		return nil, err
	}
	p := &ChaosProxy{
		network: network,
		target:  target,
		ln:      ln,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		conns:   map[net.Conn]struct{}{},
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the address clients should dial.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Close stops the listener and tears down every proxied connection;
// it returns once all pump goroutines have exited.
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

func (p *ChaosProxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.Accepts.Add(1)
		server, err := net.Dial(p.network, p.target)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client, server) {
			return
		}
		p.wg.Add(1)
		go p.pump(client, server)
	}
}

// track registers both legs for Close; false when the proxy is already
// closed (the legs are closed instead).
func (p *ChaosProxy) track(client, server net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		client.Close()
		server.Close()
		return false
	}
	p.conns[client] = struct{}{}
	p.conns[server] = struct{}{}
	return true
}

func (p *ChaosProxy) untrack(client, server net.Conn) {
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, server)
	p.mu.Unlock()
}

func (p *ChaosProxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// fate rolls this connection's fault from the seeded stream.
func (p *ChaosProxy) fate() (drop, stall, slow bool, life time.Duration) {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	roll := p.rng.Float64()
	span := p.cfg.MaxLife - p.cfg.MinLife
	life = p.cfg.MinLife
	if span > 0 {
		life += time.Duration(p.rng.Int63n(int64(span)))
	}
	switch {
	case roll < p.cfg.DropProb:
		return true, false, false, life
	case roll < p.cfg.DropProb+p.cfg.StallProb:
		return false, true, false, life
	case roll < p.cfg.DropProb+p.cfg.StallProb+p.cfg.SlowProb:
		return false, false, true, life
	}
	return false, false, false, life
}

// pump forwards both directions until a leg fails, applying the rolled
// fault.
func (p *ChaosProxy) pump(client, server net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client, server)
	defer client.Close()
	defer server.Close()

	drop, stall, slow, life := p.fate()
	var stalled atomic.Bool
	switch {
	case drop:
		p.Drops.Add(1)
		timer := time.AfterFunc(life, func() {
			client.Close()
			server.Close()
		})
		defer timer.Stop()
	case stall:
		p.Stalls.Add(1)
		timer := time.AfterFunc(life, func() { stalled.Store(true) })
		defer timer.Stop()
	case slow:
		p.Slows.Add(1)
	}

	var legs sync.WaitGroup
	legs.Add(2)
	copyLeg := func(dst, src net.Conn, throttle int) {
		defer legs.Done()
		// Half-close the other direction when this one ends, so a
		// clean server shutdown propagates to the client promptly.
		defer dst.Close()
		defer src.Close()
		buf := make([]byte, 4<<10)
		for {
			if stalled.Load() {
				// Wedge: keep the sockets open, forward nothing. The
				// deadline machinery on either side must break the tie;
				// poll so proxy Close still releases us.
				if p.isClosed() {
					return
				}
				time.Sleep(5 * time.Millisecond)
				continue
			}
			n, err := src.Read(buf)
			if n > 0 {
				if throttle > 0 {
					// Pace the payload at roughly throttle bytes/sec.
					time.Sleep(time.Duration(n) * time.Second / time.Duration(throttle))
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	throttleDown := 0
	if slow {
		throttleDown = p.cfg.SlowBytesPerSec
	}
	go copyLeg(client, server, throttleDown) // server→client leg
	copyLeg(server, client, 0)               // client→server leg
	legs.Wait()
}
