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
// connection holds no packet memory.
type sendWindow struct {
	pages     ring[*winPage] // indexed by page number: seq >> pageShift
	base, end int64
	spare     *winPage
}

const (
	pageShift = 4
	pageSize  = 1 << pageShift
)

// winPage holds the packets of pageSize consecutive sequence numbers.
type winPage [pageSize]Packet

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
			pg = new(winPage)
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
		// Drained: drop the last page and the spare, and leave the page
		// ring where the next write opens its page.
		w.pages.popFront()
		w.pages.base = w.base >> pageShift
		w.spare = nil
	case w.base&(pageSize-1) == 0:
		w.spare = w.pages.popFront()
	}
}
