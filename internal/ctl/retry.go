package ctl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrCircuitOpen reports that the retry layer is failing fast: the
// server failed too many consecutive times, so calls return immediately
// without touching the network until the breaker cooldown elapses and a
// probe is allowed through.
var ErrCircuitOpen = errors.New("ctl: circuit open")

// IdempotentVerb reports whether verb is read-only and therefore safe
// to retry on a fresh connection after a transport failure or timeout —
// the request may or may not have reached the server, but replaying it
// cannot change state either way. Compile counts: it verifies and
// compiles without installing.
func IdempotentVerb(verb string) bool {
	return verbTable[verb].idempotent
}

// The retry-layer defaults; see RetryOptions.
const (
	DefaultCallTimeout     = 5 * time.Second
	DefaultMaxAttempts     = 4
	DefaultBackoffBase     = 50 * time.Millisecond
	DefaultBackoffMax      = 2 * time.Second
	DefaultBreakerFails    = 5
	DefaultBreakerCooldown = 2 * time.Second
)

// RetryOptions tunes a ReClient. Network and Addr are required; zero
// values elsewhere select the defaults above. The unexported policy
// ships as those defaults, with a time-seeded jitter; tests tighten it.
type RetryOptions struct {
	// Network and Addr locate the server, as in Dial.
	Network string
	Addr    string

	// CallTimeout bounds every call attempt, whatever the verb (< 0
	// disables deadlines). Zero selects each verb's own deadline, or
	// DefaultCallTimeout for a verb without one.
	CallTimeout time.Duration
	// MaxAttempts is how many times an idempotent call is attempted in
	// total across reconnects (non-idempotent verbs always get exactly
	// one attempt).
	MaxAttempts int
	// backoffBase is the delay before the second attempt; it doubles
	// per attempt up to backoffMax, each delay jittered uniformly in
	// [d/2, 3d/2) so a fleet of clients does not reconnect in lockstep.
	backoffBase, backoffMax time.Duration
	// breakerFails consecutive transport failures open the circuit:
	// calls fail fast with ErrCircuitOpen for breakerCooldown, after
	// which one dial probes the server again (half-open).
	breakerFails    int
	breakerCooldown time.Duration

	// seed makes the backoff jitter reproducible (0: time-seeded).
	seed int64
}

func (o *RetryOptions) applyDefaults() {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.backoffBase == 0 {
		o.backoffBase = DefaultBackoffBase
	}
	if o.backoffMax == 0 {
		o.backoffMax = DefaultBackoffMax
	}
	if o.breakerFails == 0 {
		o.breakerFails = DefaultBreakerFails
	}
	if o.breakerCooldown == 0 {
		o.breakerCooldown = DefaultBreakerCooldown
	}
}

// ReClient is a self-healing control-plane client: it dials lazily,
// reconnects with jittered exponential backoff when the server goes
// away, retries idempotent (read-only) verbs across reconnects, and
// opens a circuit breaker — failing fast instead of hammering a dead
// server — after repeated consecutive failures. Safe for concurrent
// use. Non-idempotent verbs (swap, setreg, send, drain) are never
// replayed: a transport failure mid-call leaves it unknown whether they
// took effect, and that judgement belongs to the caller.
type ReClient struct {
	verbs // the typed verbs, over Do

	opts RetryOptions

	mu          sync.Mutex
	cl          *Client
	consecFails int
	openUntil   time.Time
	rng         *rand.Rand
}

// DialRetry creates a reconnecting client. It does not touch the
// network: the first call dials, and a dead server surfaces there.
func DialRetry(opts RetryOptions) *ReClient {
	opts.applyDefaults()
	seed := opts.seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r := &ReClient{
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
	}
	r.verbs = r.Do
	return r
}

// Close disconnects the current connection, if any. The ReClient stays
// usable: the next call reconnects.
func (r *ReClient) Close() error {
	r.mu.Lock()
	cl := r.cl
	r.cl = nil
	r.mu.Unlock()
	if cl != nil {
		return cl.Close()
	}
	return nil
}

// timeoutFor resolves the deadline for one attempt of verb.
func (r *ReClient) timeoutFor(verb string) time.Duration {
	if r.opts.CallTimeout != 0 {
		return r.opts.CallTimeout
	}
	if d := verbTable[verb].timeout; d > 0 {
		return d
	}
	return DefaultCallTimeout
}

// transportFailure classifies an error as "the request may not have
// reached the server / the response may never come": disconnects and
// attempt deadlines. Protocol errors — the server answered and said no
// — are not transport failures.
func transportFailure(err error) bool {
	return errors.Is(err, ErrDisconnected) || errors.Is(err, context.DeadlineExceeded)
}

// Do performs one request through the retry machinery and returns the
// raw result. Idempotent verbs are attempted up to MaxAttempts times
// across reconnects; everything else gets one attempt.
func (r *ReClient) Do(req Request) (json.RawMessage, error) {
	attempts := 1
	if IdempotentVerb(req.Verb) {
		attempts = r.opts.MaxAttempts
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(r.backoff(i))
		}
		cl, err := r.client()
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrCircuitOpen) {
				// Fail fast: looping against an open breaker only
				// burns the caller's time.
				return nil, err
			}
			continue
		}
		raw, err := cl.CallTimeout(req, r.timeoutFor(req.Verb))
		if err == nil {
			r.noteSuccess()
			return raw, nil
		}
		if transportFailure(err) {
			r.noteFailure(cl)
			lastErr = err
			continue
		}
		// The server answered with a protocol error: the connection is
		// healthy and retrying would repeat the same refusal.
		r.noteSuccess()
		return nil, err
	}
	return nil, lastErr
}

// client returns the live connection, dialing if necessary, honouring
// the circuit breaker.
func (r *ReClient) client() (*Client, error) {
	r.mu.Lock()
	if r.cl != nil {
		cl := r.cl
		r.mu.Unlock()
		return cl, nil
	}
	if time.Now().Before(r.openUntil) {
		r.mu.Unlock()
		return nil, fmt.Errorf("server marked down after %d consecutive failures: %w", r.consecFails, ErrCircuitOpen)
	}
	r.mu.Unlock()

	cl, err := Dial(r.opts.Network, r.opts.Addr)
	if err != nil {
		r.recordFailure()
		return nil, fmt.Errorf("ctl: dial %s: %v: %w", r.opts.Addr, err, ErrDisconnected)
	}
	r.mu.Lock()
	if r.cl != nil {
		// Another goroutine connected concurrently; keep theirs.
		existing := r.cl
		r.mu.Unlock()
		cl.Close()
		return existing, nil
	}
	r.cl = cl
	r.mu.Unlock()
	return cl, nil
}

// noteSuccess resets the failure streak and closes the breaker.
func (r *ReClient) noteSuccess() {
	r.mu.Lock()
	r.consecFails = 0
	r.openUntil = time.Time{}
	r.mu.Unlock()
}

// noteFailure drops the failed connection and records the failure.
func (r *ReClient) noteFailure(failed *Client) {
	r.mu.Lock()
	if r.cl == failed {
		r.cl = nil
	}
	r.mu.Unlock()
	if failed != nil {
		failed.Close()
	}
	r.recordFailure()
}

// recordFailure advances the streak and opens the breaker at the
// threshold.
func (r *ReClient) recordFailure() {
	r.mu.Lock()
	r.consecFails++
	if r.consecFails >= r.opts.breakerFails && !time.Now().Before(r.openUntil) {
		r.openUntil = time.Now().Add(r.opts.breakerCooldown)
	}
	r.mu.Unlock()
}

// backoff returns the jittered exponential delay before attempt i
// (i >= 1): base·2^(i-1) capped at backoffMax, jittered uniformly in
// [d/2, 3d/2).
func (r *ReClient) backoff(i int) time.Duration {
	d := r.opts.backoffBase << (i - 1)
	if d > r.opts.backoffMax || d <= 0 {
		d = r.opts.backoffMax
	}
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(d)))
	r.mu.Unlock()
	return d/2 + jitter
}

// Client exposes the live underlying connection for streaming use
// (Subscribe), dialing if necessary. The stream belongs to that
// connection: if it dies, resubscribe through a fresh Client().
func (r *ReClient) Client() (*Client, error) {
	return r.client()
}
