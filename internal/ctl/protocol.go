// Package ctl is the out-of-process control plane for the extended
// scheduling API (§3.2, §5 of the paper): a newline-delimited-JSON RPC
// protocol served over a Unix or TCP socket by any process embedding
// the progmp library, a Go client, and — in cmd/progmpctl — a CLI
// playing the role of the paper's Python userspace library. It turns
// the in-process API (pick a scheduler per connection, set registers,
// attach per-packet properties) into a runtime channel a separate
// process can drive: list live connections, compile and verify
// scheduler programs, hot-swap the scheduler of a running transfer,
// read and write registers, trigger sends, snapshot metrics, and
// subscribe to the live decision-trace stream.
//
// Wire format: one JSON object per line in each direction. Requests
// carry a caller-chosen id; every response echoes it, so requests may
// be pipelined. A subscription (verb "subscribe") acknowledges like
// any call and then streams event frames — responses whose "event"
// field is set — under the same id until "unsubscribe" or disconnect.
//
// Threading: the simulated network is single-threaded, so every
// operation that touches connection state executes as a closure
// injected into the live simulation loop (progmp.Network.Do); the
// protocol layer never reaches into the data path concurrently.
package ctl

import (
	"encoding/json"
	"time"

	"progmp"
	"progmp/internal/analysis"
	"progmp/internal/obs"
)

// The protocol verbs.
const (
	VerbPing        = "ping"        // liveness + virtual clock
	VerbList        = "list"        // connections with scheduler, registers, subflow stats
	VerbSchedulers  = "schedulers"  // named scheduler corpus available to compile/swap
	VerbCompile     = "compile"     // parse + type-check + compile, without installing
	VerbSwap        = "swap"        // hot-swap a verified scheduler on a live connection
	VerbGetReg      = "getreg"      // read a scheduler register
	VerbSetReg      = "setreg"      // write a scheduler register
	VerbSend        = "send"        // enqueue bytes, optionally with a scheduling intent
	VerbMetrics     = "metrics"     // snapshot a connection's metrics registry
	VerbMetricsAgg  = "metrics-agg" // fleet-wide aggregated metrics (JSON or OpenMetrics text)
	VerbSubscribe   = "subscribe"   // stream live trace events
	VerbUnsubscribe = "unsubscribe" // end a subscription
	VerbDrain       = "drain"       // graceful server shutdown
	VerbGGet        = "gget"        // read a shared-store global register
	VerbGSet        = "gset"        // write a shared-store global register
	VerbDestStats   = "deststats"   // dump per-destination shared path statistics
)

// verb is everything the package knows about one verb besides its
// constant and typed client method.
type verb struct {
	// serve answers a request; the dispatcher writes what it returns.
	serve func(*session, Request) (any, error)
	// idempotent verbs are read-only: the retry layer may replay them
	// on a fresh connection after a transport failure or timeout.
	idempotent bool
	// always verbs bypass the draining and overload refusals.
	always bool
	// timeout bounds one ReClient attempt unless CallTimeout is set
	// (0: DefaultCallTimeout). Compile and swap run the analyzer and
	// the code generator, so they get room.
	timeout time.Duration
}

// verbTable is the vocabulary: one row per verb.
var verbTable = map[string]verb{
	VerbPing:        {serve: (*session).ping, idempotent: true, always: true, timeout: 2 * time.Second},
	VerbList:        {serve: (*session).list, idempotent: true, timeout: 2 * time.Second},
	VerbSchedulers:  {serve: (*session).schedulers, idempotent: true, timeout: 2 * time.Second},
	VerbCompile:     {serve: (*session).compile, idempotent: true, timeout: 10 * time.Second},
	VerbSwap:        {serve: (*session).swap, timeout: 10 * time.Second},
	VerbGetReg:      {serve: (*session).getReg, idempotent: true, timeout: 2 * time.Second},
	VerbSetReg:      {serve: (*session).setReg, timeout: 2 * time.Second},
	VerbSend:        {serve: (*session).send, timeout: 5 * time.Second},
	VerbMetrics:     {serve: (*session).metrics, idempotent: true, timeout: 5 * time.Second},
	VerbMetricsAgg:  {serve: (*session).metricsAgg, idempotent: true, timeout: 5 * time.Second},
	VerbSubscribe:   {serve: (*session).subscribe},
	VerbUnsubscribe: {serve: (*session).unsubscribe, always: true, timeout: 2 * time.Second},
	VerbDrain:       {serve: (*session).drain, always: true, timeout: 5 * time.Second},
	VerbGGet:        {serve: (*session).gget, idempotent: true, timeout: 2 * time.Second},
	VerbGSet:        {serve: (*session).gset, timeout: 2 * time.Second},
	VerbDestStats:   {serve: (*session).destStats, idempotent: true, timeout: 2 * time.Second},
}

// Request is one client→server line. Verbs read only the fields they
// need: Conn names a registered connection (list order, 1-based);
// Name/Src/Backend select and compile a scheduler program (Src wins
// over Name; Backend defaults to "vm"); Reg/Value address a register;
// Bytes/Prop describe a send; Sub names the subscription to cancel;
// Kinds/Buf tune a subscription (event-kind filter as spelled in trace
// output, and the server-side buffer in events).
type Request struct {
	ID      uint64   `json:"id"`
	Verb    string   `json:"verb"`
	Conn    int      `json:"conn,omitempty"`
	Name    string   `json:"name,omitempty"`
	Src     string   `json:"src,omitempty"`
	Backend string   `json:"backend,omitempty"`
	Reg     int      `json:"reg,omitempty"`
	Value   int64    `json:"value,omitempty"`
	Bytes   int      `json:"bytes,omitempty"`
	Prop    int64    `json:"prop,omitempty"`
	Sub     uint64   `json:"sub,omitempty"`
	Kinds   []string `json:"kinds,omitempty"`
	Buf     int      `json:"buf,omitempty"`
	// Force overrides the static-analysis admission gate on swap:
	// programs carrying analyzer warnings are installed anyway. Errors
	// are never forceable.
	Force bool `json:"force,omitempty"`
	// Format selects the metrics-agg payload: "json" (structured
	// snapshot, the default) or "text" (OpenMetrics exposition).
	Format string `json:"format,omitempty"`
}

// Response is one server→client line: a call result (Result set on
// success, Error on failure) or a subscription event frame (Event
// set), both echoing the request id.
type Response struct {
	ID     uint64          `json:"id"`
	OK     bool            `json:"ok"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Event  *obs.JSONLEvent `json:"event,omitempty"`
	// Diags carries the static analyzer's structured findings
	// (rule id, severity, position) when a compile or swap is refused,
	// so clients can render more than a flat error string.
	Diags []analysis.Diagnostic `json:"diags,omitempty"`
}

// DiagError is a refusal that carries structured diagnostics: a
// handler returns one to have them written as Response.Diags, and a
// Client call returns one when a response carried them.
type DiagError struct {
	Msg   string
	Diags []analysis.Diagnostic
}

// Error returns the server's message.
func (e *DiagError) Error() string { return e.Msg }

// PingResult answers VerbPing.
type PingResult struct {
	NowUS int64 `json:"now_us"` // virtual time of the simulation
}

// SubflowInfo is one subflow's monitoring snapshot.
type SubflowInfo struct {
	Name            string  `json:"name"`
	Established     bool    `json:"established"`
	Closed          bool    `json:"closed"`
	Backup          bool    `json:"backup"`
	SRTTUS          int64   `json:"srtt_us"`
	Cwnd            float64 `json:"cwnd"`
	BytesSent       int64   `json:"bytes_sent"`
	PktsSent        int64   `json:"pkts_sent"`
	Retransmissions int64   `json:"retransmissions"`
	ThroughputBps   int64   `json:"throughput_bps"`
}

// ConnInfo is one connection's monitoring snapshot.
type ConnInfo struct {
	ID          int           `json:"id"`
	Name        string        `json:"name"`
	Scheduler   string        `json:"scheduler"`
	Backend     string        `json:"backend,omitempty"`
	Supervised  bool          `json:"supervised"`
	GuardState  string        `json:"guard_state,omitempty"`
	Registers   []int64       `json:"registers"`
	QueuedSegs  int           `json:"queued_segments"`
	UnackedSegs int           `json:"unacked_segments"`
	AllAcked    bool          `json:"all_acked"`
	Subflows    []SubflowInfo `json:"subflows"`
}

// ListResult answers VerbList.
type ListResult struct {
	Conns []ConnInfo `json:"conns"`
}

// SchedulersResult answers VerbSchedulers.
type SchedulersResult struct {
	Names []string `json:"names"`
}

// CompileResult answers VerbCompile (and rides inside SwapResult).
type CompileResult struct {
	Name        string `json:"name"`
	Backend     string `json:"backend"`
	MemoryBytes int    `json:"memory_bytes"`
	// Diagnostics are the analyzer's non-fatal findings (warnings and
	// infos) recorded at admission.
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
	// Warnings counts the warning-severity diagnostics; a non-zero
	// count means swap will refuse this program without Force.
	Warnings int `json:"warnings,omitempty"`
	// StepBound is the static worst-case step count as a polynomial in
	// S (subflows) and N (queue depth); StepBoundSteps is its value at
	// the reference environment size.
	StepBound      string `json:"step_bound,omitempty"`
	StepBoundSteps int64  `json:"step_bound_steps,omitempty"`
}

// SwapResult answers VerbSwap.
type SwapResult struct {
	Conn          int    `json:"conn"`
	Scheduler     string `json:"scheduler"`
	Backend       string `json:"backend"`
	Supervised    bool   `json:"supervised"`
	PrevScheduler string `json:"prev_scheduler"`
}

// RegResult answers VerbGetReg and VerbSetReg.
type RegResult struct {
	Reg   int   `json:"reg"`
	Value int64 `json:"value"`
}

// GlobalResult answers VerbGGet and VerbGSet: one shared-store global
// register alongside the store epoch the value was read at (for gset,
// the epoch the write published).
type GlobalResult struct {
	Reg   int    `json:"reg"`
	Value int64  `json:"value"`
	Epoch uint64 `json:"epoch"`
}

// DestStatsResult answers VerbDestStats: the store's per-destination
// path statistics, name-sorted, all from the single epoch reported.
type DestStatsResult struct {
	Epoch uint64             `json:"epoch"`
	Dests []progmp.DestStats `json:"dests"`
}

// SubscribeResult acknowledges VerbSubscribe; Sub is the id to pass to
// VerbUnsubscribe (the subscribe request's own id).
type SubscribeResult struct {
	Sub uint64 `json:"sub"`
}

// MetricsResult answers VerbMetrics.
type MetricsResult = obs.Snapshot

// MetricsAggResult answers VerbMetricsAgg: exactly one of Snapshot
// (format "json") or Text (format "text", the OpenMetrics exposition)
// is populated.
type MetricsAggResult struct {
	NumSources int              `json:"num_sources"`
	Snapshot   *obs.AggSnapshot `json:"snapshot,omitempty"`
	Text       string           `json:"text,omitempty"`
}

// DrainResult acknowledges VerbDrain: the server stops accepting,
// finishes inflight requests, closes subscriptions and shuts down. The
// acknowledgement is written before the drain begins, so it is usually
// the last response this session sees.
type DrainResult struct {
	Draining bool `json:"draining"`
}
