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
