package mptcp

// sendWindow owns the sender's packets: every segment written and not
// yet cumulatively acknowledged, [base, end) in sequence space. They
// are Packet values in pages of pageSize consecutive sequence numbers,
// page k holding k·pageSize up to (k+1)·pageSize−1, so a segment costs
// its connection no allocation of its own. Everything else names a
// packet through the window: Q, QU and RQ hold pointers into it until
// the packet leaves them, which it does before the cumulative ACK
// retires it, and a subflow's send window names its segments by
// sequence number (txRecord). A pointer to a retired packet would read
// whatever later write reused its page.
//
// A page the cumulative ACK has passed becomes the spare, at most one,
// which the next page the writes open takes instead of allocating. A
// drained window lets go of every page, the spare too, so an idle
// connection holds no packet memory: the pages go to the garbage
// collector, or to the pool the connection shares (Conn.SharePages).
type sendWindow struct {
	pages     ring[*winPage] // indexed by page number: seq >> pageShift
	base, end int64
	spare     *winPage
	pool      *PagePool
}

const (
	pageShift = 4
	pageSize  = 1 << pageShift
)

// winPage holds the packets of pageSize consecutive sequence numbers.
type winPage [pageSize]Packet

// PagePool holds the send-window pages that drained windows let go of,
// for the next page any window sharing it opens: a connection's next
// burst, or the next world a fleet shard recycles, takes one back
// instead of allocating. A page holds no pointer and push overwrites a
// packet whole, so nothing of a page's past shows or stays reachable
// through it. A pool holds no more pages than its windows once held at
// once. The zero value is an empty pool; it is not safe for concurrent
// use: the connections sharing one run on one goroutine.
type PagePool struct{ free []*winPage }

// get returns a pooled page, or a new one when the pool (or p) is empty.
func (p *PagePool) get() *winPage {
	if p == nil || len(p.free) == 0 {
		return new(winPage)
	}
	pg := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return pg
}

// put pools pg, or drops it when p is nil.
func (p *PagePool) put(pg *winPage) {
	if p != nil {
		//progmp:ignore hotpath amortized: the pool's slice grows only to the most pages its windows ever drained at once
		p.free = append(p.free, pg)
	}
}

func (w *sendWindow) len() int { return int(w.end - w.base) }

// at returns the packet numbered seq, nil outside [base, end): retired,
// or never written.
func (w *sendWindow) at(seq int64) *Packet {
	if seq < w.base || seq >= w.end {
		return nil
	}
	return &w.pages.at(seq >> pageShift)[seq&(pageSize-1)]
}

// push extends the window by the packet numbered end and returns it,
// zeroed but for its Seq.
func (w *sendWindow) push() *Packet {
	seq, k := w.end, w.end>>pageShift
	if k == w.pages.end() { // the first packet of its page
		pg := w.spare
		w.spare = nil
		if pg == nil {
			pg = w.pool.get()
		}
		w.pages.pushBack(pg)
	}
	p := &w.pages.at(k)[seq&(pageSize-1)]
	*p = Packet{Seq: seq}
	w.end++
	return p
}

// pop retires the packet numbered base. The caller has taken it out of
// every queue: nothing may point at it afterwards.
func (w *sendWindow) pop() {
	w.base++
	switch {
	case w.base == w.end:
		// Drained: free the last page and the spare, and leave the page
		// ring where the next write opens its page.
		w.free()
		w.pages.base = w.base >> pageShift
	case w.base&(pageSize-1) == 0:
		w.spare = w.pages.popFront()
	}
}

// free lets go of every page the window holds, the spare too.
func (w *sendWindow) free() {
	for w.pages.len() > 0 {
		w.pool.put(w.pages.popFront())
	}
	if w.spare != nil {
		w.pool.put(w.spare)
		w.spare = nil
	}
}

// reset empties the window back to sequence number 0.
func (w *sendWindow) reset() {
	w.free()
	w.pages.reset()
	w.base, w.end = 0, 0
}
