package ctl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"progmp"
	"progmp/internal/analysis"
	"progmp/internal/core"
	"progmp/internal/obs"
)

// maxLine bounds one request line (scheduler sources ride inline).
const maxLine = 4 << 20

// drainTimeout bounds how long Drain waits for inflight requests.
const drainTimeout = 5 * time.Second

// The robustness limits a server ships with; see Options.
const (
	DefaultReadIdleTimeout = 2 * time.Minute
	DefaultWriteTimeout    = 10 * time.Second
	DefaultMaxInflight     = 64
)

// Options configures a Server. Network is required. Tracer enables the
// subscribe verb, Metrics the metrics verb; either may be nil. Agg
// enables the metrics-agg verb and the HTTP exposition endpoint: the
// fleet aggregator the embedder attaches its per-connection registries
// to. Compile and swap name programs of progmp.Schedulers, the paper's
// corpus.
//
// The unexported limits harden the server against slow, dead or
// hostile peers. What ships is the defaults above; tests shorten them.
type Options struct {
	Network *progmp.Network
	Tracer  *progmp.Tracer
	Metrics *progmp.Metrics
	Agg     *obs.Aggregator

	// Fleet, when set, gates compile and swap: programs currently
	// fleet-blocked (quarantined on too many connections) are refused
	// unless the request forces installation.
	Fleet *progmp.Fleet

	// Store, when set, enables the shared-state verbs (gget, gset,
	// deststats) against the cross-connection store the embedder
	// attached its connections to. The store is internally
	// synchronized — reads are one atomic snapshot load — so these
	// verbs never round-trip through Network.Do.
	Store *progmp.SharedStore

	// readIdleTimeout disconnects a session that sends nothing for this
	// long. Sessions with an active subscription are exempt — a watch
	// client legitimately never writes again.
	readIdleTimeout time.Duration
	// writeTimeout bounds every response or event-frame write; a peer
	// that stops reading is disconnected rather than wedging a handler
	// or pump goroutine forever.
	writeTimeout time.Duration
	// maxInflight bounds concurrently handled requests across all
	// sessions; beyond it requests are refused with an overload error
	// (counted as ctl.overloads) instead of queueing without bound.
	maxInflight int
	// subEvictDrops is the consecutive-drop budget before a stalled
	// subscriber is evicted from the tracer (0:
	// obs.DefaultSubscriptionEvictDrops).
	subEvictDrops int
}

func (o *Options) applyDefaults() {
	if o.readIdleTimeout == 0 {
		o.readIdleTimeout = DefaultReadIdleTimeout
	}
	if o.writeTimeout == 0 {
		o.writeTimeout = DefaultWriteTimeout
	}
	if o.maxInflight == 0 {
		o.maxInflight = DefaultMaxInflight
	}
}

type namedConn struct {
	name string
	conn *progmp.Conn
}

// Server answers control-plane requests for one simulated network.
// Register the connections it should expose, then Serve one or more
// listeners. All connection state is touched via Network.Do, so the
// server is safe to run alongside Network.RunLive.
type Server struct {
	opts Options

	// Control-plane self-metrics, resolved once from Options.Metrics
	// (nil handles are no-ops when no registry is attached): request
	// count and round-trip handling latency of every verb, plus the
	// robustness counters — recovered handler panics, overload
	// refusals, fleet-gate refusals — and the draining gauge.
	mRequests     *obs.Counter
	mRequestNS    *obs.Histogram
	mPanics       *obs.Counter
	mOverloads    *obs.Counter
	mFleetRejects *obs.Counter
	gDraining     *obs.Gauge

	// inflight counts requests currently being handled (all sessions);
	// it backs both the maxInflight refusal and the Drain wait.
	inflight atomic.Int64

	mu       sync.Mutex
	conns    []namedConn
	lns      []net.Listener
	sessions map[*session]struct{}
	draining bool
	closed   bool
}

// NewServer creates a server; see Options for the knobs.
func NewServer(opts Options) *Server {
	opts.applyDefaults()
	return &Server{
		opts:          opts,
		mRequests:     opts.Metrics.Counter("ctl.requests"),
		mRequestNS:    opts.Metrics.Histogram("ctl.request_ns"),
		mPanics:       opts.Metrics.Counter("ctl.panics"),
		mOverloads:    opts.Metrics.Counter("ctl.overloads"),
		mFleetRejects: opts.Metrics.Counter("ctl.fleet_rejects"),
		gDraining:     opts.Metrics.Gauge("ctl.draining"),
		sessions:      map[*session]struct{}{},
	}
}

// Register exposes conn under the given display name and returns its
// protocol id (1-based, in registration order).
func (s *Server) Register(name string, conn *progmp.Conn) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns = append(s.conns, namedConn{name: name, conn: conn})
	return len(s.conns)
}

// Serve accepts sessions on ln until the listener fails or the server
// is closed (which returns nil). Each session runs on its own
// goroutine; call Serve itself from a goroutine too.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("ctl: server closed")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed || s.draining
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sess := &session{srv: s, conn: c, subs: map[uint64]*obs.Subscription{}}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		go sess.run()
	}
}

// Drain shuts the server down gracefully: stop accepting new sessions,
// refuse new requests (ping, unsubscribe and drain stay answerable),
// wait until inflight handlers finish — at most drainTimeout — then
// close every
// subscription so pump goroutines end and streaming clients see
// end-of-stream, take a final fleet-metrics snapshot while the sockets
// are still up, and Close. Idempotent: concurrent and repeated calls
// join the same drain.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	lns := append([]net.Listener(nil), s.lns...)
	s.mu.Unlock()
	s.gDraining.Set(1)
	for _, ln := range lns {
		ln.Close()
	}
	deadline := time.Now().Add(drainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	var sessions []*session
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.closeSubs()
	}
	// Flush the self-metrics into the fleet view before the transport
	// disappears: the aggregator's sources read atomically, so one last
	// Aggregate publishes a consistent final snapshot to any scraper
	// holding the HTTP handler.
	if s.opts.Agg != nil {
		s.opts.Agg.Aggregate()
	}
	s.Close()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops all listeners and disconnects every session. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.lns
	var sessions []*session
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
}

func (s *Server) lookup(id int) (namedConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 1 || id > len(s.conns) {
		return namedConn{}, fmt.Errorf("unknown conn id %d (have 1..%d)", id, len(s.conns))
	}
	return s.conns[id-1], nil
}

// session is one accepted control connection.
type session struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex // serializes response and event frames

	smu  sync.Mutex // guards subs
	subs map[uint64]*obs.Subscription
}

func (se *session) run() {
	defer se.teardown()
	sc := bufio.NewScanner(se.conn)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for {
		se.armReadDeadline()
		if !sc.Scan() {
			// A request over the size cap gets told why before the
			// session dies; idle timeouts and disconnects just end it.
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				se.writeError(0, fmt.Errorf("request exceeds %d byte cap", maxLine))
			}
			return
		}
		line := sc.Bytes()
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			se.writeError(0, fmt.Errorf("malformed request: %v", err))
			continue
		}
		se.handle(req)
	}
}

// armReadDeadline applies the idle read deadline before each request.
// Sessions with a live subscription are exempt: a watch client
// legitimately goes quiet forever while event frames stream out.
func (se *session) armReadDeadline() {
	se.smu.Lock()
	streaming := len(se.subs) > 0
	se.smu.Unlock()
	if streaming {
		se.conn.SetReadDeadline(time.Time{})
	} else {
		se.conn.SetReadDeadline(time.Now().Add(se.srv.opts.readIdleTimeout))
	}
}

// closeSubs ends every subscription but leaves the session connected —
// the drain path, where remaining responses should still be written.
func (se *session) closeSubs() {
	se.smu.Lock()
	subs := se.subs
	if subs != nil {
		se.subs = map[uint64]*obs.Subscription{}
	}
	se.smu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

func (se *session) teardown() {
	se.smu.Lock()
	subs := se.subs
	se.subs = nil
	se.smu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
	se.conn.Close()
	se.srv.mu.Lock()
	delete(se.srv.sessions, se)
	se.srv.mu.Unlock()
}

func (se *session) write(resp Response) error {
	buf, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	se.wmu.Lock()
	defer se.wmu.Unlock()
	se.conn.SetWriteDeadline(time.Now().Add(se.srv.opts.writeTimeout))
	_, err = se.conn.Write(buf)
	return err
}

// writeError answers id with err, attaching the analyzer's findings
// when err is a *DiagError.
func (se *session) writeError(id uint64, err error) {
	resp := Response{ID: id, Error: err.Error()}
	var de *DiagError
	if errors.As(err, &de) {
		resp.Diags = de.Diags
	}
	se.write(resp)
}

// handle dispatches one request through its verbTable row and writes
// the one response, feeding the server's self-metrics: ctl.requests
// counts verbs handled, ctl.request_ns times the handler (for
// subscribe, the acknowledgement; event frames stream on their own
// goroutine). Three layers of hardening wrap the dispatch: a panic in
// any handler is recovered and answered as an internal error (counted
// as ctl.panics) instead of killing the process; requests beyond
// maxInflight are refused with an overload error (ctl.overloads); and
// once Drain has begun, only the rows marked always are still
// answerable.
func (se *session) handle(req Request) {
	srv := se.srv
	srv.mRequests.Add(1)
	defer func() {
		if r := recover(); r != nil {
			srv.mPanics.Add(1)
			se.writeError(req.ID, fmt.Errorf("internal error: %s handler panicked: %v", req.Verb, r))
		}
	}()
	if srv.mRequestNS != nil {
		t0 := time.Now()
		defer func() { srv.mRequestNS.Observe(int64(time.Since(t0))) }()
	}
	v, known := verbTable[req.Verb]
	if !v.always {
		if srv.Draining() {
			se.writeError(req.ID, fmt.Errorf("server draining"))
			return
		}
		if max := srv.opts.maxInflight; srv.inflight.Load() >= int64(max) {
			srv.mOverloads.Add(1)
			se.writeError(req.ID, fmt.Errorf("server overloaded: %d requests inflight", max))
			return
		}
	}
	// The answer is written before this decrement, which is what Drain
	// waits on: a drain acknowledgement reaches the wire before the
	// drain tears the session down.
	srv.inflight.Add(1)
	defer srv.inflight.Add(-1)
	if !known {
		se.writeError(req.ID, fmt.Errorf("unknown verb %q", req.Verb))
		return
	}
	res, err := v.serve(se, req)
	var raw []byte
	if err == nil {
		raw, err = json.Marshal(res)
	}
	if err != nil {
		se.writeError(req.ID, err)
		return
	}
	se.write(Response{ID: req.ID, OK: true, Result: raw})
	if s, ok := res.(subscribed); ok {
		go s.pump()
	}
}

// onSim runs fn on the simulation goroutine and returns the injection
// error, else fn's own.
func (se *session) onSim(fn func() error) error {
	var err error
	if doErr := se.srv.opts.Network.Do(func() { err = fn() }); doErr != nil {
		return doErr
	}
	return err
}

// drain starts the server drain off this goroutine: Drain waits for
// inflight handlers, and this handler is one of them until its
// acknowledgement is written.
func (se *session) drain(Request) (any, error) {
	go se.srv.Drain()
	return DrainResult{Draining: true}, nil
}

func (se *session) ping(Request) (any, error) {
	var res PingResult
	err := se.onSim(func() error {
		res.NowUS = se.srv.opts.Network.Now().Microseconds()
		return nil
	})
	return res, err
}

func (se *session) list(Request) (any, error) {
	se.srv.mu.Lock()
	conns := append([]namedConn(nil), se.srv.conns...)
	se.srv.mu.Unlock()
	out := ListResult{Conns: []ConnInfo{}}
	err := se.onSim(func() error {
		for i, nc := range conns {
			out.Conns = append(out.Conns, connInfo(i+1, nc))
		}
		return nil
	})
	return out, err
}

// connInfo snapshots one connection; call on the simulation goroutine.
func connInfo(id int, nc namedConn) ConnInfo {
	c := nc.conn
	si := c.SchedulerInfo()
	info := ConnInfo{
		ID:          id,
		Name:        nc.name,
		Scheduler:   si.Name,
		Backend:     si.Backend,
		Supervised:  si.Supervised,
		GuardState:  si.GuardState,
		QueuedSegs:  c.Inner().QueuedSegments(),
		UnackedSegs: c.Inner().UnackedSegments(),
		AllAcked:    c.AllAcked(),
	}
	for i := progmp.R1; i <= progmp.R8; i++ {
		v, _ := c.Register(i) // R1..R8 are in range
		info.Registers = append(info.Registers, v)
	}
	for _, sf := range c.Subflows() {
		info.Subflows = append(info.Subflows, SubflowInfo{
			Name:            sf.Name,
			Established:     sf.Established,
			Closed:          sf.Closed,
			Backup:          sf.Backup,
			SRTTUS:          sf.SRTT.Microseconds(),
			Cwnd:            sf.Cwnd,
			BytesSent:       sf.BytesSent,
			PktsSent:        sf.PktsSent,
			Retransmissions: sf.Retransmissions,
			ThroughputBps:   sf.ThroughputBps,
		})
	}
	return info
}

func (se *session) schedulers(Request) (any, error) {
	var names []string
	for name := range progmp.Schedulers {
		names = append(names, name)
	}
	sort.Strings(names)
	return SchedulersResult{Names: names}, nil
}

// resolveProgram turns a request's Src/Name/Backend fields into a
// compiled, verified scheduler that compile and swap may accept. Pure
// CPU: safe off the sim goroutine. A source that fails to load is
// refused with the analyzer's findings on it.
func (se *session) resolveProgram(req Request) (*progmp.Scheduler, error) {
	name, src := req.Name, req.Src
	if src == "" {
		if name == "" {
			return nil, fmt.Errorf("compile needs name or src")
		}
		var ok bool
		src, ok = progmp.Schedulers[name]
		if !ok {
			return nil, fmt.Errorf("unknown scheduler %q", name)
		}
	} else if name == "" {
		name = "adhoc"
	}
	backend := core.BackendVM // an omitted backend means the default
	var prog *progmp.Scheduler
	var err error
	if req.Backend != "" {
		backend, err = core.ParseBackend(req.Backend)
	}
	if err == nil {
		prog, err = progmp.LoadSchedulerBackend(name, src, backend)
	}
	if err != nil {
		if rep := analysis.AnalyzeSource(src, analysis.Options{}); len(rep.Diagnostics) > 0 {
			return nil, &DiagError{Msg: err.Error(), Diags: rep.Diagnostics}
		}
		return nil, err
	}
	return prog, se.fleetRefusal(prog, req.Force)
}

// fleetRefusal returns the refusal error when the resolved program is
// currently fleet-blocked and the request does not force past the gate
// (nil otherwise). Forcing is honoured because the block is a
// protective default, not a policy decision the operator cannot
// override — the same contract as the analyzer admission gate.
func (se *session) fleetRefusal(prog *progmp.Scheduler, force bool) error {
	f := se.srv.opts.Fleet
	if f == nil || force || !f.Blocked(prog.Name()) {
		return nil
	}
	se.srv.mFleetRejects.Add(1)
	return fmt.Errorf("scheduler %q is fleet-blocked: it quarantined on too many connections; set force to install anyway",
		prog.Name())
}

func (se *session) compile(req Request) (any, error) {
	prog, err := se.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	rep := prog.AnalysisReport()
	return CompileResult{
		Name:           prog.Name(),
		Backend:        prog.Backend().String(),
		MemoryBytes:    prog.MemoryFootprint(),
		Diagnostics:    rep.Diagnostics,
		Warnings:       rep.Warnings(),
		StepBound:      rep.StepBound,
		StepBoundSteps: rep.StepBoundAt,
	}, nil
}

func (se *session) swap(req Request) (any, error) {
	nc, err := se.lookupConn(req)
	if err != nil {
		return nil, err
	}
	prog, err := se.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	// The admission gate: programs carrying analyzer warnings are not
	// installed on a live connection unless the caller forces it.
	if rep := prog.AnalysisReport(); !rep.Clean() && !req.Force {
		return nil, &DiagError{
			Msg: fmt.Sprintf("scheduler %q refused by admission gate: %d analyzer warning(s); set force to install anyway",
				prog.Name(), rep.Warnings()),
			Diags: rep.Diagnostics,
		}
	}
	var res SwapResult
	err = se.onSim(func() error {
		prev, err := nc.conn.HotSwap(prog)
		if err != nil {
			return err
		}
		cur := nc.conn.SchedulerInfo()
		res = SwapResult{
			Conn:          req.Conn,
			Scheduler:     cur.Name,
			Backend:       cur.Backend,
			Supervised:    cur.Supervised,
			PrevScheduler: prev.Name,
		}
		return nil
	})
	return res, err
}

func (se *session) lookupConn(req Request) (namedConn, error) {
	id := req.Conn
	if id == 0 {
		id = 1 // the common single-connection embedder
	}
	return se.srv.lookup(id)
}

func (se *session) getReg(req Request) (any, error) {
	nc, err := se.lookupConn(req)
	if err != nil {
		return nil, err
	}
	res := RegResult{Reg: req.Reg}
	err = se.onSim(func() (err error) {
		res.Value, err = nc.conn.Register(req.Reg)
		return err
	})
	return res, err
}

func (se *session) setReg(req Request) (any, error) {
	nc, err := se.lookupConn(req)
	if err != nil {
		return nil, err
	}
	return RegResult{Reg: req.Reg, Value: req.Value},
		se.onSim(func() error { return nc.conn.SetRegister(req.Reg, req.Value) })
}

func (se *session) send(req Request) (any, error) {
	nc, err := se.lookupConn(req)
	if err != nil {
		return nil, err
	}
	if req.Bytes <= 0 {
		return nil, fmt.Errorf("send needs bytes > 0")
	}
	return struct{}{}, se.onSim(func() error {
		nc.conn.SendWithIntent(req.Bytes, req.Prop)
		return nil
	})
}

func (se *session) metrics(Request) (any, error) {
	if se.srv.opts.Metrics == nil {
		return nil, fmt.Errorf("metrics not attached")
	}
	return se.srv.opts.Metrics.Snapshot(), nil
}

func (se *session) metricsAgg(req Request) (any, error) {
	agg := se.srv.opts.Agg
	if agg == nil {
		return nil, fmt.Errorf("metrics aggregator not attached")
	}
	// Registries are read with atomic loads, so aggregation runs off the
	// simulation goroutine without a Network.Do round-trip.
	snap := agg.Aggregate()
	res := MetricsAggResult{NumSources: snap.NumSources}
	switch req.Format {
	case "", "json":
		res.Snapshot = &snap
	case "text":
		res.Text = obs.RenderOpenMetrics(snap)
	default:
		return nil, fmt.Errorf("unknown metrics format %q (json, text)", req.Format)
	}
	return res, nil
}

// sharedStore resolves the attached store for the shared-state verbs
// and, for those that address a global register (addressed), checks
// the register index.
func (se *session) sharedStore(req Request, addressed bool) (*progmp.SharedStore, error) {
	st := se.srv.opts.Store
	switch {
	case st == nil:
		return nil, fmt.Errorf("shared-state store not attached")
	case addressed && (req.Reg < 0 || req.Reg >= progmp.NumSharedGlobals):
		return nil, fmt.Errorf("global register %d out of range (have 0..%d)", req.Reg, progmp.NumSharedGlobals-1)
	}
	return st, nil
}

// gget reads one shared global register. Load copies one epoch out of
// the store, so the value and the epoch it belongs to are coherent
// without touching the simulation goroutine.
func (se *session) gget(req Request) (any, error) {
	st, err := se.sharedStore(req, true)
	if err != nil {
		return nil, err
	}
	snap := st.Load()
	return GlobalResult{Reg: req.Reg, Value: snap.Globals[req.Reg], Epoch: snap.Epoch}, nil
}

// gset writes one shared global register and reports the epoch the
// write published, so a client can watch its own write become visible
// to every store-attached scheduler. The epoch is the write's own, not
// a re-read: writes that land after it (a live simulation's ACKs) do
// not move it.
func (se *session) gset(req Request) (any, error) {
	st, err := se.sharedStore(req, true)
	if err != nil {
		return nil, err
	}
	epoch := st.SetGlobal(req.Reg, req.Value)
	return GlobalResult{Reg: req.Reg, Value: req.Value, Epoch: epoch}, nil
}

// destStats dumps the live per-destination path statistics of one store
// epoch, name-sorted for stable presentation.
func (se *session) destStats(req Request) (any, error) {
	st, err := se.sharedStore(req, false)
	if err != nil {
		return nil, err
	}
	snap := st.Load()
	return DestStatsResult{Epoch: snap.Epoch, Dests: snap.All()}, nil
}

// subscribed is subscribe's answer: the acknowledgement, and the pump
// that streams the event frames. The dispatcher starts the pump only
// once the acknowledgement is written, so the client sees the ack
// before the first frame.
type subscribed struct {
	SubscribeResult
	pump func()
}

func (se *session) subscribe(req Request) (any, error) {
	if se.srv.opts.Tracer == nil {
		return nil, fmt.Errorf("tracing not attached")
	}
	var kinds []obs.EventKind
	for _, name := range req.Kinds {
		k, ok := obs.KindFromString(name)
		if !ok {
			return nil, fmt.Errorf("unknown event kind %q", name)
		}
		kinds = append(kinds, k)
	}
	connFilter := int32(-1)
	if req.Conn != 0 {
		nc, err := se.srv.lookup(req.Conn)
		if err != nil {
			return nil, err
		}
		connFilter = nc.conn.Inner().TraceConnID()
	}
	sub := se.srv.opts.Tracer.SubscribeEvict(req.Buf, se.srv.opts.subEvictDrops, kinds, connFilter)
	se.smu.Lock()
	var err error
	if se.subs == nil { // session tearing down
		err = fmt.Errorf("session closing")
	} else if _, dup := se.subs[req.ID]; dup {
		err = fmt.Errorf("subscription %d already active", req.ID)
	} else {
		se.subs[req.ID] = sub
	}
	se.smu.Unlock()
	if err != nil {
		sub.Close()
		return nil, err
	}
	return subscribed{SubscribeResult{Sub: req.ID}, func() {
		for ev := range sub.Events() {
			frame := ev.ToJSONL()
			if err := se.write(Response{ID: req.ID, OK: true, Event: &frame}); err != nil {
				// The peer stopped reading (or the write deadline hit):
				// the stream is poisoned mid-frame, so end the
				// subscription and drain the channel.
				sub.Close()
				break
			}
		}
		// Stream over. Deregister, and if the tracer evicted us for
		// falling too far behind, tell the client with a terminal error
		// frame under the subscription id.
		se.smu.Lock()
		_, active := se.subs[req.ID]
		delete(se.subs, req.ID)
		se.smu.Unlock()
		if active && sub.Evicted() {
			se.writeError(req.ID, fmt.Errorf("subscription evicted: subscriber fell %d events behind", sub.Dropped()))
		}
	}}, nil
}

func (se *session) unsubscribe(req Request) (any, error) {
	se.smu.Lock()
	sub, ok := se.subs[req.Sub]
	delete(se.subs, req.Sub)
	se.smu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no subscription %d", req.Sub)
	}
	sub.Close()
	return struct{}{}, nil
}
