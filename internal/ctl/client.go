package ctl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progmp/internal/obs"
)

// ErrDisconnected reports that the transport to the server ended —
// cleanly (server drained or closed) or not (crash, network failure,
// refused dial) — as opposed to the server answering with a protocol
// error. Errors returned by Client calls wrap it, so callers can test
// with errors.Is(err, ErrDisconnected).
var ErrDisconnected = errors.New("ctl: disconnected")

// The client's retry policy. Tests shorten it through export_test.go.
const (
	// defaultCallTimeout bounds an attempt of a verb whose verbTable
	// row names no deadline (subscribe's wait for its acknowledgement).
	defaultCallTimeout = 5 * time.Second
	// maxAttempts is how many times a read-only call is attempted in
	// total across reconnects; every other verb gets one attempt.
	maxAttempts = 4
	// backoffBase is the delay before the second attempt; it doubles
	// per attempt up to backoffMax, each delay jittered uniformly in
	// [d/2, 3d/2) so a fleet of clients does not reconnect in lockstep.
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// Client speaks the control-plane protocol to a Server. It dials
// lazily, bounds every call attempt by its verb's deadline, and drops
// the connection on a transport failure (a disconnect or a missed
// deadline), so the next call dials afresh. Read-only verbs are
// replayed across reconnects with jittered backoff; the others (swap,
// setreg, gset, send, drain, subscribe) get one attempt, because after
// a transport failure it is unknown whether they took effect, and that
// judgement belongs to the caller. Safe for concurrent use: calls and
// streams share the connection, demultiplexed by request id.
type Client struct {
	network, addr string

	// timeout, when positive, bounds every attempt whatever the verb;
	// backoffBase and backoffMax shape the delays between attempts.
	// They ship as the constants above (timeout unset).
	timeout                 time.Duration
	backoffBase, backoffMax time.Duration

	nextID atomic.Uint64

	mu  sync.Mutex
	cn  *link // the live connection; nil until a call dials
	rng *rand.Rand
}

// link is one transport connection and the calls and streams riding on
// it.
type link struct {
	nc  net.Conn
	wmu sync.Mutex // serializes request lines

	mu      sync.Mutex
	pending map[uint64]chan Response
	subs    map[uint64]*Stream
	readErr error
	done    chan struct{}
}

// NetworkOf names the transport a control-plane address selects, as
// every CLI's address flag spells it: host:port is "tcp", anything with
// a slash (or no colon) is a "unix" socket path.
func NetworkOf(addr string) string {
	if !strings.Contains(addr, "/") && strings.Contains(addr, ":") {
		return "tcp"
	}
	return "unix"
}

// Dial returns a client of the server at addr, a Unix socket path or
// host:port (see NetworkOf). It does not touch the network: the first
// call dials, and a dead server surfaces there as ErrDisconnected.
func Dial(addr string) *Client {
	return &Client{
		network:     NetworkOf(addr),
		addr:        addr,
		backoffBase: backoffBase,
		backoffMax:  backoffMax,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Close disconnects; in-flight calls fail and streams end. The client
// stays usable: the next call dials afresh.
func (c *Client) Close() error {
	c.mu.Lock()
	cn := c.cn
	c.cn = nil
	c.mu.Unlock()
	if cn == nil {
		return nil
	}
	return cn.close()
}

// timeoutFor is the deadline of one attempt of verb: its verbTable
// row's, or defaultCallTimeout for a row without one.
func (c *Client) timeoutFor(verb string) time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	if d := verbTable[verb].timeout; d > 0 {
		return d
	}
	return defaultCallTimeout
}

// Call sends req (its ID is assigned here) and waits for the matching
// response, returning the raw result or the server's error. A
// read-only verb is attempted up to maxAttempts times across
// reconnects; a protocol error (the server answered and said no) is
// returned at once.
func (c *Client) Call(req Request) (json.RawMessage, error) {
	attempts := 1
	if verbTable[req.Verb].idempotent {
		attempts = maxAttempts
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(c.backoff(i))
		}
		var raw json.RawMessage
		raw, err = c.attempt(req, nil)
		if !transportFailure(err) {
			return raw, err
		}
	}
	return nil, err
}

// attempt makes one round trip of req on the live connection, dialing
// if there is none, under the verb's deadline. sent, if set, runs
// under the connection's lock with ok true as the call registers, and
// with ok false if the call is then abandoned (write failure, refusal,
// deadline); the read loop cleans up after a dead connection instead.
// A transport failure drops the connection.
func (c *Client) attempt(req Request, sent func(cn *link, id uint64, ok bool)) (json.RawMessage, error) {
	d := c.timeoutFor(req.Verb)
	cn, err := c.connect(d)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req.ID = c.nextID.Add(1)
	raw, err := cn.roundTrip(ctx, req, sent)
	if transportFailure(err) {
		c.drop(cn)
	}
	return raw, err
}

// transportFailure classifies an error as "the request may not have
// reached the server / the response may never come": disconnects and
// attempt deadlines. Protocol errors are not transport failures.
func transportFailure(err error) bool {
	return errors.Is(err, ErrDisconnected) || errors.Is(err, context.DeadlineExceeded)
}

// connect returns the live connection, dialing within d if there is
// none. Concurrent callers wait for the one dial.
func (c *Client) connect(d time.Duration) (*link, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cn != nil {
		return c.cn, nil
	}
	nc, err := net.DialTimeout(c.network, c.addr, d)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %v: %w", c.addr, err, ErrDisconnected)
	}
	c.cn = &link{
		nc:      nc,
		pending: map[uint64]chan Response{},
		subs:    map[uint64]*Stream{},
		done:    make(chan struct{}),
	}
	go c.cn.readLoop()
	return c.cn, nil
}

// drop closes a failed connection and forgets it, unless another call
// already replaced it.
func (c *Client) drop(cn *link) {
	c.mu.Lock()
	if c.cn == cn {
		c.cn = nil
	}
	c.mu.Unlock()
	cn.close()
}

// backoff returns the jittered exponential delay before attempt i
// (i >= 1): backoffBase·2^(i-1) capped at backoffMax, jittered
// uniformly in [d/2, 3d/2).
func (c *Client) backoff(i int) time.Duration {
	d := c.backoffBase << (i - 1)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)))
	c.mu.Unlock()
	return d/2 + jitter
}

// close ends the connection and waits for its read loop, which fails
// the pending calls and ends the streams.
func (cn *link) close() error {
	err := cn.nc.Close()
	<-cn.done
	return err
}

func (cn *link) readLoop() {
	sc := bufio.NewScanner(cn.nc)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	var readErr error
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			readErr = fmt.Errorf("ctl: malformed response: %v", err)
			break
		}
		cn.route(resp)
	}
	if readErr == nil {
		if err := sc.Err(); err != nil {
			readErr = fmt.Errorf("ctl: connection lost: %v: %w", err, ErrDisconnected)
		} else {
			readErr = fmt.Errorf("ctl: connection closed: %w", ErrDisconnected)
		}
	}
	cn.mu.Lock()
	cn.readErr = readErr
	for id, ch := range cn.pending {
		delete(cn.pending, id)
		close(ch)
	}
	for id, st := range cn.subs {
		delete(cn.subs, id)
		close(st.ch)
	}
	cn.mu.Unlock()
	close(cn.done)
}

func (cn *link) route(resp Response) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if resp.Event != nil {
		if st, ok := cn.subs[resp.ID]; ok {
			select {
			case st.ch <- *resp.Event:
			default:
				st.dropped.Add(1)
			}
		}
		return
	}
	if ch, ok := cn.pending[resp.ID]; ok {
		delete(cn.pending, resp.ID)
		ch <- resp
		return
	}
	// An error response under a live subscription id with no pending
	// call is the server ending the stream (e.g. the subscriber was
	// evicted for falling behind): close the stream and surface why.
	if st, ok := cn.subs[resp.ID]; ok && !resp.OK {
		delete(cn.subs, resp.ID)
		st.endErr.Store(fmt.Errorf("ctl: %s", resp.Error))
		close(st.ch)
	}
}

// roundTrip sends req and waits for its response or for ctx to end.
// An abandoned call does not disturb the connection — the protocol is
// pipelined by request id — and the read loop discards its eventual
// response.
func (cn *link) roundTrip(ctx context.Context, req Request, sent func(cn *link, id uint64, ok bool)) (json.RawMessage, error) {
	ch := make(chan Response, 1)
	cn.mu.Lock()
	if cn.readErr != nil {
		err := cn.readErr
		cn.mu.Unlock()
		return nil, err
	}
	cn.pending[req.ID] = ch
	if sent != nil {
		sent(cn, req.ID, true)
	}
	cn.mu.Unlock()
	abandon := func() {
		cn.mu.Lock()
		delete(cn.pending, req.ID)
		if sent != nil {
			sent(cn, req.ID, false)
		}
		cn.mu.Unlock()
	}
	if err := cn.writeRequest(req); err != nil {
		abandon()
		return nil, fmt.Errorf("ctl: write failed: %v: %w", err, ErrDisconnected)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			cn.mu.Lock()
			err := cn.readErr
			cn.mu.Unlock()
			return nil, err
		}
		if !resp.OK {
			abandon()
			if len(resp.Diags) > 0 {
				return nil, &DiagError{Msg: "ctl: " + resp.Error, Diags: resp.Diags}
			}
			return nil, fmt.Errorf("ctl: %s", resp.Error)
		}
		return resp.Result, nil
	case <-ctx.Done():
		abandon()
		return nil, fmt.Errorf("ctl: %s: %w", req.Verb, ctx.Err())
	}
}

func (cn *link) writeRequest(req Request) error {
	buf, err := json.Marshal(req)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	_, err = cn.nc.Write(buf)
	return err
}

// Stream is a live trace-event subscription, bound to the connection
// it was opened on: when that connection ends, so does the stream
// (subscribe again for a new one). Drain Events promptly: frames
// arriving while the local buffer is full are dropped (counted by
// Dropped), independent of the server-side subscription buffer.
type Stream struct {
	c       *Client
	cn      *link
	id      uint64
	ch      chan obs.JSONLEvent
	dropped atomic.Uint64
	endErr  atomic.Value // error: why the server ended the stream
	closed  sync.Once
}

// Events is the stream of trace frames; it closes when the stream or
// its connection ends.
func (s *Stream) Events() <-chan obs.JSONLEvent { return s.ch }

// Dropped counts frames discarded client-side because Events was not
// drained fast enough.
func (s *Stream) Dropped() uint64 { return s.dropped.Load() }

// Err reports why the server ended the stream (e.g. the subscriber was
// evicted for falling behind); nil while live or after a local Close.
func (s *Stream) Err() error {
	if err, ok := s.endErr.Load().(error); ok {
		return err
	}
	return nil
}

// Close ends the subscription. The local stream is torn down
// immediately; the server-side unsubscribe goes over the stream's own
// connection, bounded by that verb's deadline, so against a stalled or
// vanished server the stream still closes promptly and the failure
// surfaces as the returned error.
func (s *Stream) Close() error {
	var err error
	s.closed.Do(func() {
		s.cn.mu.Lock()
		_, live := s.cn.subs[s.id]
		if live {
			delete(s.cn.subs, s.id)
			close(s.ch)
		}
		s.cn.mu.Unlock()
		if !live {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.c.timeoutFor(VerbUnsubscribe))
		defer cancel()
		_, err = s.cn.roundTrip(ctx, Request{ID: s.c.nextID.Add(1), Verb: VerbUnsubscribe, Sub: s.id}, nil)
		// The server may have ended the subscription on its side
		// (eviction) in the instant before our unsubscribe landed; the
		// stream is down either way, so that race is not an error.
		if err != nil && strings.Contains(err.Error(), "no subscription") {
			err = nil
		}
	})
	return err
}

// Subscribe opens a live trace-event stream on the client's connection
// (dialing if there is none). conn filters to one connection (0 =
// all), kinds filters by event name as spelled in trace output (nil =
// all), buf sizes both the server-side and local buffers (<= 0 selects
// the default; the server refuses more than maxSubscriptionBuffer).
// The wait for the server's acknowledgement is bounded like any call;
// a subscribe is not replayed.
func (c *Client) Subscribe(conn int, kinds []string, buf int) (*Stream, error) {
	if buf <= 0 {
		buf = obs.DefaultSubscriptionBuffer
	}
	st := &Stream{c: c, ch: make(chan obs.JSONLEvent, buf)}
	// Register the stream before sending so no frame between the ack
	// and our return is lost.
	_, err := c.attempt(Request{Verb: VerbSubscribe, Conn: conn, Kinds: kinds, Buf: buf}, func(cn *link, id uint64, ok bool) {
		if ok {
			st.cn, st.id = cn, id
			cn.subs[id] = st
		} else if _, live := cn.subs[id]; live {
			delete(cn.subs, id)
			close(st.ch)
		}
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
