package ctl

import (
	"math/rand"
	"time"
)

// The caps on what one request may ask of the server.
const (
	MaxSubscriptionBuffer = maxSubscriptionBuffer
	MaxSendBytes          = maxSendBytes
)

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

// RetryPolicy is the client policy a test tightens; a zero field keeps
// the policy that ships.
type RetryPolicy struct {
	// CallTimeout bounds every attempt, whatever the verb.
	CallTimeout             time.Duration
	BackoffBase, BackoffMax time.Duration
	// Seed makes the backoff jitter reproducible.
	Seed int64
}

// With sets the policy p on c, before its first call, and returns c.
func (c *Client) With(p RetryPolicy) *Client {
	if p.CallTimeout != 0 {
		c.timeout = p.CallTimeout
	}
	if p.BackoffBase != 0 {
		c.backoffBase = p.BackoffBase
	}
	if p.BackoffMax != 0 {
		c.backoffMax = p.BackoffMax
	}
	if p.Seed != 0 {
		c.rng = rand.New(rand.NewSource(p.Seed))
	}
	return c
}
