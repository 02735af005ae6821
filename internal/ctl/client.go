package ctl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progmp/internal/obs"
)

// ErrDisconnected reports that the transport to the server ended —
// cleanly (server drained or closed) or not (crash, network failure) —
// as opposed to the server answering with a protocol error. Errors
// returned by Client calls wrap it, so callers and the retry layer can
// test with errors.Is(err, ErrDisconnected) and treat the condition as
// retryable on a fresh connection.
var ErrDisconnected = errors.New("ctl: disconnected")

// Client speaks the control-plane protocol to a Server. It is safe for
// concurrent use; calls may be issued from any goroutine and are
// demultiplexed by request id.
type Client struct {
	verbs // the typed verbs, over Call

	conn net.Conn

	wmu sync.Mutex // serializes request lines

	nextID atomic.Uint64

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

// Dial connects to a control-plane server ("unix" + socket path, or
// "tcp" + host:port).
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: map[uint64]chan Response{},
		subs:    map[uint64]*Stream{},
		done:    make(chan struct{}),
	}
	c.verbs = c.Call
	go c.readLoop()
	return c, nil
}

// Close disconnects; in-flight calls fail and streams end.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Client) readLoop() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	var readErr error
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			readErr = fmt.Errorf("ctl: malformed response: %v", err)
			break
		}
		c.route(resp)
	}
	if readErr == nil {
		if err := sc.Err(); err != nil {
			readErr = fmt.Errorf("ctl: connection lost: %v: %w", err, ErrDisconnected)
		} else {
			readErr = fmt.Errorf("ctl: connection closed: %w", ErrDisconnected)
		}
	}
	c.mu.Lock()
	c.readErr = readErr
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	for id, st := range c.subs {
		delete(c.subs, id)
		close(st.ch)
	}
	c.mu.Unlock()
	close(c.done)
}

func (c *Client) route(resp Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if resp.Event != nil {
		if st, ok := c.subs[resp.ID]; ok {
			select {
			case st.ch <- *resp.Event:
			default:
				st.dropped.Add(1)
			}
		}
		return
	}
	if ch, ok := c.pending[resp.ID]; ok {
		delete(c.pending, resp.ID)
		ch <- resp
		return
	}
	// An error response under a live subscription id with no pending
	// call is the server ending the stream (e.g. the subscriber was
	// evicted for falling behind): close the stream and surface why.
	if st, ok := c.subs[resp.ID]; ok && !resp.OK {
		delete(c.subs, resp.ID)
		st.endErr.Store(fmt.Errorf("ctl: %s", resp.Error))
		close(st.ch)
	}
}

// Call sends req (its ID is assigned here) and waits for the matching
// response, returning the raw result or the server's error.
func (c *Client) Call(req Request) (json.RawMessage, error) {
	return c.CallCtx(context.Background(), req)
}

// CallCtx is Call bounded by a context: when ctx ends before the
// response arrives, the call returns ctx's error immediately and the
// eventual response is discarded by the read loop. A context timeout
// does NOT disturb the connection — the protocol is pipelined by
// request id — but the caller no longer knows whether the request took
// effect, so only idempotent verbs should be retried after one (the
// retry layer enforces exactly that).
func (c *Client) CallCtx(ctx context.Context, req Request) (json.RawMessage, error) {
	return c.roundTrip(ctx, req, nil)
}

// roundTrip sends req under a fresh id and waits for its response or
// for ctx to end. sent, if set, runs under the client lock with ok true
// as the call registers, and with ok false if the call is then
// abandoned (write failure, refusal, ctx ended); readLoop cleans up
// after a dead connection instead.
func (c *Client) roundTrip(ctx context.Context, req Request, sent func(id uint64, ok bool)) (json.RawMessage, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.pending[req.ID] = ch
	if sent != nil {
		sent(req.ID, true)
	}
	c.mu.Unlock()
	abandon := func() {
		c.mu.Lock()
		delete(c.pending, req.ID)
		if sent != nil {
			sent(req.ID, false)
		}
		c.mu.Unlock()
	}
	if err := c.writeRequest(req); err != nil {
		abandon()
		return nil, fmt.Errorf("ctl: write failed: %v: %w", err, ErrDisconnected)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
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

// CallTimeout is CallCtx with a fresh deadline of d (no bound when
// d <= 0).
func (c *Client) CallTimeout(req Request, d time.Duration) (json.RawMessage, error) {
	if d <= 0 {
		return c.Call(req)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.CallCtx(ctx, req)
}

func (c *Client) writeRequest(req Request) error {
	buf, err := json.Marshal(req)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err = c.conn.Write(buf)
	return err
}

// Stream is a live trace-event subscription. Drain Events promptly:
// frames arriving while the local buffer is full are dropped (counted
// by Dropped), independent of the server-side subscription buffer.
type Stream struct {
	c       *Client
	id      uint64
	ch      chan obs.JSONLEvent
	dropped atomic.Uint64
	endErr  atomic.Value // error: why the server ended the stream
	closed  sync.Once
}

// Events is the stream of trace frames; it closes when the stream or
// the client shuts down.
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
// immediately; the server-side unsubscribe is bounded by that verb's
// deadline, so against a stalled or vanished server the stream still
// closes promptly and the failure surfaces as the returned error.
func (s *Stream) Close() error {
	var err error
	s.closed.Do(func() {
		s.c.mu.Lock()
		_, live := s.c.subs[s.id]
		if live {
			delete(s.c.subs, s.id)
			close(s.ch)
		}
		s.c.mu.Unlock()
		if live {
			_, err = s.c.CallTimeout(Request{Verb: VerbUnsubscribe, Sub: s.id}, verbTable[VerbUnsubscribe].timeout)
			// The server may have ended the subscription on its side
			// (eviction) in the instant before our unsubscribe landed;
			// the stream is down either way, so that race is not an
			// error.
			if err != nil && strings.Contains(err.Error(), "no subscription") {
				err = nil
			}
		}
	})
	return err
}

// Subscribe opens a live trace-event stream. conn filters to one
// connection (0 = all), kinds filters by event name as spelled in
// trace output (nil = all), buf sizes both the server-side and local
// buffers (<= 0 selects the default). The wait for the server's
// acknowledgement is unbounded; against a server that may stall, use
// SubscribeCtx.
func (c *Client) Subscribe(conn int, kinds []string, buf int) (*Stream, error) {
	return c.SubscribeCtx(context.Background(), conn, kinds, buf)
}

// SubscribeCtx is Subscribe bounded by a context: if ctx ends before
// the server acknowledges the subscription, the stream is torn down
// locally and ctx's error returned. The eventual acknowledgement or
// refusal is discarded by the read loop.
func (c *Client) SubscribeCtx(ctx context.Context, conn int, kinds []string, buf int) (*Stream, error) {
	if buf <= 0 {
		buf = obs.DefaultSubscriptionBuffer
	}
	req := Request{Verb: VerbSubscribe, Conn: conn, Kinds: kinds, Buf: buf}
	st := &Stream{c: c, ch: make(chan obs.JSONLEvent, buf)}
	// Register the stream before sending so no frame between the ack
	// and our return is lost.
	_, err := c.roundTrip(ctx, req, func(id uint64, ok bool) {
		if ok {
			st.id = id
			c.subs[id] = st
		} else if _, live := c.subs[id]; live {
			delete(c.subs, id)
			close(st.ch)
		}
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
