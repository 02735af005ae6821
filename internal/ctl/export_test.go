package ctl

import "time"

// ConsecFails returns the current consecutive transport-failure count
// (zero after any success).
func (r *ReClient) ConsecFails() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.consecFails
}

// BreakerOpen reports whether calls are currently failing fast.
func (r *ReClient) BreakerOpen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Now().Before(r.openUntil)
}

// Limits are the server limits a test shortens; a zero field keeps the
// limit that ships.
type Limits struct {
	ReadIdleTimeout, WriteTimeout time.Duration
	MaxInflight, SubEvictDrops    int
}

// With returns o with the limits l.
func (o Options) With(l Limits) Options {
	o.readIdleTimeout, o.writeTimeout = l.ReadIdleTimeout, l.WriteTimeout
	o.maxInflight, o.subEvictDrops = l.MaxInflight, l.SubEvictDrops
	return o
}

// RetryPolicy is the retry policy a test tightens; a zero field keeps
// the policy that ships.
type RetryPolicy struct {
	BackoffBase, BackoffMax time.Duration
	BreakerFails            int
	BreakerCooldown         time.Duration
	// Seed makes the backoff jitter reproducible.
	Seed int64
}

// With returns o with the policy p.
func (o RetryOptions) With(p RetryPolicy) RetryOptions {
	o.backoffBase, o.backoffMax = p.BackoffBase, p.BackoffMax
	o.breakerFails, o.breakerCooldown = p.BreakerFails, p.BreakerCooldown
	o.seed = p.Seed
	return o
}
