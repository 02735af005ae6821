package mptcp

// ring is a window [base, base+n) over a dense, forward-moving index:
// the one store for per-sequence state. The pages of the sender's
// packets (sendWindow), each subflow's send window, both levels of
// receiver reordering and the delivery-rate samples are all "the
// element for number i, until everything below it is retired",
// which is what TCP's own windows are. The zero value is an empty
// window at index 0 and owns no memory until the first store; elements
// inside the window that were never stored read as the zero T.
type ring[T any] struct {
	buf  []T   // len is zero or a power of two; index i lives at buf[i&(len-1)]
	base int64 // lowest index not yet retired
	n    int   // window length
}

// ringMinCap sizes the first growth so that a 16 KiB burst (12 segments)
// costs a connection one allocation per window.
const ringMinCap = 16

func (r *ring[T]) len() int { return r.n }

// end is the index one past the window.
func (r *ring[T]) end() int64 { return r.base + int64(r.n) }

func (r *ring[T]) slot(i int64) *T { return &r.buf[int(i)&(len(r.buf)-1)] }

// at returns the element at index i, the zero T outside the window.
func (r *ring[T]) at(i int64) T {
	if i < r.base || i >= r.end() {
		var zero T
		return zero
	}
	return *r.slot(i)
}

// set stores v at index i, extending the window to cover it. An index
// below base is retired: the store is dropped.
func (r *ring[T]) set(i int64, v T) {
	if i < r.base {
		return
	}
	if need := int(i-r.base) + 1; need > r.n {
		if need > len(r.buf) {
			r.grow(need)
		}
		r.n = need
	}
	*r.slot(i) = v
}

// pushBack stores v at the index one past the window.
func (r *ring[T]) pushBack(v T) { r.set(r.end(), v) }

// popFront retires index base and returns what it held. On an empty
// window only base moves, so the window follows a frontier that advances
// without anything ever being stored.
func (r *ring[T]) popFront() T {
	var v T
	if r.n > 0 {
		s := r.slot(r.base)
		var zero T
		v, *s = *s, zero // slots outside the window stay zero, and hold no reference
		r.n--
	}
	r.base++
	return v
}

// reset empties the window back to index 0 and keeps its buffer.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.base, r.n = 0, 0
}

// grow re-houses the window in the smallest power-of-two buffer with
// room for need elements.
func (r *ring[T]) grow(need int) {
	size := max(ringMinCap, len(r.buf))
	for size < need {
		size *= 2
	}
	old := *r
	//progmp:ignore hotpath amortized: a window doubles until it holds its peak occupancy, then never again
	r.buf = make([]T, size)
	for i := old.base; i < old.end(); i++ {
		*r.slot(i) = *old.slot(i)
	}
}
