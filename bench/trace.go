package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"progmp/internal/mptcp"
	"progmp/internal/runtime"
)

// The traced pass records spans from the benchmark's side of each
// layer boundary: around a slice of Network.Run (or one fleet.Run),
// around the scheduler execution the substrate calls out to, around
// the application's writes and around its delivery callback. Nothing
// inside the program is instrumented, so a slice's self time — its
// duration minus the children it covers — is the substrate (mptcp and
// netsim) as a whole.

type spanKind uint8

const (
	spanWorkload spanKind = iota
	spanSlice
	spanFleetRun
	spanExec
	spanSend
	spanDeliver
)

var spanNames = [...]string{
	spanWorkload: "bench.workload",
	spanSlice:    "netsim.run_slice",
	spanFleetRun: "fleet.run",
	spanExec:     "core.exec",
	spanSend:     "mptcp.send",
	spanDeliver:  "app.deliver",
}

type span struct {
	start, dur int64 // ns since the recorder's epoch
	parent     int32 // index of the enclosing span, -1 for the root
	kind       spanKind
}

// spanRecorder keeps spans in a slice allocated up front, so recording
// one costs two clock reads and a store. It is used from one goroutine
// at a time: the simulation is single-threaded and traced fleets run on
// one shard. A nil *spanRecorder records nothing, so the passes that
// are not traced run the same code.
type spanRecorder struct {
	epoch   time.Time
	spans   []span
	cur     int32 // innermost open span
	dropped int64 // spans that did not fit
	paused  bool  // set while the workload is outside its timed region
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

// begin opens a span under the innermost open one and returns its
// index for end; -1 when the recorder is nil, paused or full.
func (t *spanRecorder) begin(kind spanKind) int32 {
	if t == nil || t.paused {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: t.cur, kind: kind})
	t.cur = i
	return i
}

func (t *spanRecorder) end(i int32) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.dur = int64(time.Since(t.epoch)) - s.start
	t.cur = s.parent
}

// traceShares splits the traced slices' wall time by who spent it.
type traceShares struct {
	exec, send, substrate float64
}

// shares attributes the time under the slice spans (run_slice, or
// fleet.run for fleets): scheduler executions wherever they nest, the
// self time of application writes, and the slices' own self time.
func (t *spanRecorder) shares() traceShares {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.dur
		}
	}
	var total, exec, send, substrate int64
	for i, s := range t.spans {
		switch s.kind {
		case spanSlice, spanFleetRun:
			total += s.dur
			substrate += s.dur - children[i]
		case spanExec:
			exec += s.dur
		case spanSend:
			send += s.dur - children[i]
		}
	}
	if total == 0 {
		return traceShares{}
	}
	return traceShares{
		exec:      float64(exec) / float64(total),
		send:      float64(send) / float64(total),
		substrate: float64(substrate) / float64(total),
	}
}

// writeChrome renders the spans as Chrome trace-event JSON (complete
// events, microsecond timestamps) for chrome://tracing or Perfetto.
func (t *spanRecorder) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			spanNames[s.kind], float64(s.start)/1e3, float64(s.dur)/1e3, i, s.parent)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

// tracedScheduler is the core.exec boundary: it implements
// mptcp.Scheduler around the real scheduler and is installed with
// Conn.Inner().SetScheduler, so the substrate's call into the back-end
// becomes a span without the substrate knowing.
type tracedScheduler struct {
	inner mptcp.Scheduler
	rec   *spanRecorder
}

func (s *tracedScheduler) Exec(env *runtime.Env) {
	i := s.rec.begin(spanExec)
	s.inner.Exec(env)
	s.rec.end(i)
}
