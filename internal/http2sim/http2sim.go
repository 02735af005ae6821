// Package http2sim models the HTTP/2 content-retrieval process of
// §5.5: a prioritized multiplexed byte stream of resources with
// content classes (dependency-critical, required-for-initial-view,
// deferrable), a server that annotates packets with their class
// through the extended scheduling API (the nghttp2→OpenSSL→scheduler
// forwarding of the paper), and a browser model that resolves
// third-party-content dependencies from the in-order stream.
package http2sim

import (
	"fmt"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/schedlib"
)

// ContentClass categorizes HTTP/2 payload for the scheduler.
type ContentClass int

// Content classes, ordered by transmission priority.
const (
	// ClassDependency is initial data that carries references to
	// external (third-party) resources; retrieving it early enables
	// the earliest possible dependency resolution.
	ClassDependency ContentClass = iota
	// ClassRequired is first-party content needed to render the
	// initial page view.
	ClassRequired
	// ClassDeferrable is content outside the initial view (e.g.
	// below-the-fold images) that does not affect the user-perceived
	// load time.
	ClassDeferrable
)

// String names the class.
func (c ContentClass) String() string {
	switch c {
	case ClassDependency:
		return "dependency"
	case ClassRequired:
		return "required"
	case ClassDeferrable:
		return "deferrable"
	}
	return fmt.Sprintf("ContentClass(%d)", int(c))
}

// Prop maps the class to the scheduler packet property convention of
// the HTTP2Aware scheduler.
func (c ContentClass) Prop() int64 {
	switch c {
	case ClassDependency:
		return schedlib.PropDependency
	case ClassRequired:
		return schedlib.PropRequired
	default:
		return schedlib.PropDeferrable
	}
}

// Resource is one HTTP/2 stream's payload.
type Resource struct {
	Class ContentClass
	Size  int
}

// ThirdParty is an external dependency on the critical path: the
// browser can request it only after all ClassDependency bytes arrived,
// and the initial page completes only after it is fetched.
type ThirdParty struct {
	FetchTime time.Duration
}

// Page is the content inventory of one web page.
type Page struct {
	Resources  []Resource
	ThirdParty []ThirdParty
}

// TotalBytes sums payload and framing bytes as serialized.
func (p Page) TotalBytes() int {
	total := 0
	for _, f := range Serialize(p) {
		total += f.WireSize()
	}
	return total
}

// ClassBytes sums the wire bytes of one class.
func (p Page) ClassBytes(c ContentClass) int {
	total := 0
	for _, f := range Serialize(p) {
		if f.Class == c {
			total += f.WireSize()
		}
	}
	return total
}

// DefaultPage models the optimized page of the paper's measurement
// study: HTML head with dependency information first, then the CSS/JS
// and above-the-fold content required for the initial view, with more
// than half of the data (below-the-fold images) deferrable.
func DefaultPage() Page {
	return Page{
		Resources: []Resource{
			{Class: ClassDependency, Size: 12 << 10}, // HTML head
			{Class: ClassRequired, Size: 24 << 10},   // critical CSS
			{Class: ClassRequired, Size: 64 << 10},   // app JS
			{Class: ClassRequired, Size: 48 << 10},   // hero image
			{Class: ClassDeferrable, Size: 96 << 10}, // below-the-fold images
			{Class: ClassDeferrable, Size: 96 << 10},
			{Class: ClassDeferrable, Size: 64 << 10},
			{Class: ClassDeferrable, Size: 32 << 10}, // analytics JS
		},
		ThirdParty: []ThirdParty{
			{FetchTime: 60 * time.Millisecond}, // web font from a CDN
			{FetchTime: 90 * time.Millisecond}, // ad exchange
		},
	}
}

// frameHeaderSize is the HTTP/2 frame header (RFC 7540 §4.1).
const frameHeaderSize = 9

// maxFramePayload is the serializer's DATA frame payload bound.
const maxFramePayload = 16 << 10

// Frame is one serialized HTTP/2 DATA frame.
type Frame struct {
	Class   ContentClass
	Payload int
}

// WireSize is the frame's size on the wire.
func (f Frame) WireSize() int { return frameHeaderSize + f.Payload }

// Serialize flattens the page into the server's transmission order:
// HTTP/2 priorities put dependency-bearing bytes first, then required
// content, then deferrable content, each split into DATA frames.
func Serialize(p Page) []Frame {
	var frames []Frame
	for _, class := range []ContentClass{ClassDependency, ClassRequired, ClassDeferrable} {
		for _, res := range p.Resources {
			if res.Class != class {
				continue
			}
			remaining := res.Size
			for remaining > 0 {
				payload := remaining
				if payload > maxFramePayload {
					payload = maxFramePayload
				}
				remaining -= payload
				frames = append(frames, Frame{Class: class, Payload: payload})
			}
		}
	}
	return frames
}

// Server pushes the page into an MPTCP connection, annotating each
// write with the content class (the per-packet scheduling intent of
// §3.2).
type Server struct {
	Page Page
}

// Respond enqueues the whole serialized page on conn.
func (s Server) Respond(conn *mptcp.Conn) {
	for _, f := range Serialize(s.Page) {
		conn.Send(f.WireSize(), f.Class.Prop())
	}
}

// Metrics are the browser-observed outcomes of one page load, the
// quantities of Fig. 14.
type Metrics struct {
	// DependencyRetrieved is when all dependency-class bytes arrived —
	// the "time to retrieve all dependency information".
	DependencyRetrieved time.Duration
	// InitialPage is when the initial view completed: all required
	// first-party bytes and all third-party content.
	InitialPage time.Duration
	// FullLoad is when every byte of the page arrived.
	FullLoad time.Duration
	// Complete is true once FullLoad was observed.
	Complete bool
}

// Browser consumes the receiver's in-order byte stream, tracks class
// completion boundaries, and launches third-party fetches as soon as
// the dependency information is complete.
type Browser struct {
	conn *mptcp.Conn
	page Page

	depEnd      int64 // stream offset after the last dependency byte
	requiredEnd int64 // stream offset after the last required byte
	totalEnd    int64

	delivered int64
	m         Metrics
	tpPending int
}

// NewBrowser attaches a browser to the connection's receiver.
func NewBrowser(conn *mptcp.Conn, page Page) *Browser {
	b := &Browser{conn: conn, page: page}
	var off int64
	for _, class := range []ContentClass{ClassDependency, ClassRequired, ClassDeferrable} {
		for _, f := range Serialize(page) {
			if f.Class != class {
				continue
			}
			off += int64(f.WireSize())
		}
		switch class {
		case ClassDependency:
			b.depEnd = off
		case ClassRequired:
			b.requiredEnd = off
		case ClassDeferrable:
			b.totalEnd = off
		}
	}
	b.m.DependencyRetrieved = -1
	b.m.InitialPage = -1
	b.m.FullLoad = -1
	b.tpPending = len(page.ThirdParty)
	conn.Receiver().OnDeliver(func(_ int64, size int, at time.Duration) {
		b.onBytes(size, at)
	})
	return b
}

// Metrics returns the current measurement snapshot.
func (b *Browser) Metrics() Metrics { return b.m }

func (b *Browser) onBytes(size int, at time.Duration) {
	b.delivered += int64(size)
	if b.m.DependencyRetrieved < 0 && b.delivered >= b.depEnd {
		b.m.DependencyRetrieved = at
		b.resolveThirdParty(at)
	}
	if b.delivered >= b.requiredEnd && b.m.InitialPage < 0 && b.tpPending == 0 {
		b.m.InitialPage = at
	}
	if b.m.FullLoad < 0 && b.delivered >= b.totalEnd {
		b.m.FullLoad = at
		b.m.Complete = true
	}
}

// resolveThirdParty issues all third-party fetches in parallel (the
// browser's dependency resolution of Fig. 14 right).
func (b *Browser) resolveThirdParty(at time.Duration) {
	if b.tpPending == 0 {
		return
	}
	eng := b.conn.Engine()
	for _, tp := range b.page.ThirdParty {
		tp := tp
		eng.At(at+tp.FetchTime, func() {
			b.tpPending--
			if b.tpPending == 0 && b.delivered >= b.requiredEnd && b.m.InitialPage < 0 {
				b.m.InitialPage = eng.Now()
			}
		})
	}
}
