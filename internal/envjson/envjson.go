// Package envjson parses JSON descriptions of scheduler execution
// environments, powering the `progmp-vet exec` developer tool: scheduler
// authors describe a situation (subflows, queues, registers), run a
// specification against it, and inspect the resulting actions — the
// workflow the paper's tutorial teaches on https://progmp.net.
package envjson

import (
	"encoding/json"
	"fmt"
	"strings"

	"progmp/internal/runtime"
)

// SubflowSpec is one subflow in the JSON environment.
type SubflowSpec struct {
	RTTms        float64 `json:"rtt_ms"`
	RTTAvgMs     float64 `json:"rtt_avg_ms"`
	RTTVarMs     float64 `json:"rtt_var_ms"`
	Cwnd         int64   `json:"cwnd"`
	InFlight     int64   `json:"in_flight"`
	Queued       int64   `json:"queued"`
	Throughput   int64   `json:"throughput_bps"`
	MSS          int64   `json:"mss"`
	LostSkbs     int64   `json:"lost_skbs"`
	RTOms        float64 `json:"rto_ms"`
	Lossy        bool    `json:"lossy"`
	TSQThrottled bool    `json:"tsq_throttled"`
	Backup       bool    `json:"backup"`
	RWndFree     int64   `json:"rwnd_free"`
	// The path's link transmit queue in bytes, and the shared-state
	// store's view of the destination (0 without a store).
	LinkQueued int64   `json:"link_queued"`
	XRTTms     float64 `json:"xrtt_ms"`
	XLost      int64   `json:"xlost"`
	XDelivered int64   `json:"xdelivered"`
	XQuar      int64   `json:"xquar"`
}

// PacketSpec is one packet in a queue.
type PacketSpec struct {
	Seq        int64 `json:"seq"`
	Size       int64 `json:"size"`
	Prop       int64 `json:"prop"`
	SentCount  int64 `json:"sent_count"`
	AgeUS      int64 `json:"age_us"`
	LastSentUS int64 `json:"last_sent_us"`
	SentOn     []int `json:"sent_on"`
}

// Spec is the whole environment.
type Spec struct {
	Subflows []SubflowSpec `json:"subflows"`
	Q        []PacketSpec  `json:"q"`
	QU       []PacketSpec  `json:"qu"`
	RQ       []PacketSpec  `json:"rq"`
	Regs     []int64       `json:"regs"`
}

// Parse decodes a JSON environment.
func Parse(data []byte) (*runtime.Env, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("envjson: %w", err)
	}
	return Build(spec)
}

// Build assembles a runtime environment from a decoded spec.
func Build(spec Spec) (*runtime.Env, error) {
	if len(spec.Subflows) > runtime.MaxSubflows {
		return nil, fmt.Errorf("envjson: %d subflows exceed the maximum %d", len(spec.Subflows), runtime.MaxSubflows)
	}
	if len(spec.Regs) > runtime.NumRegisters {
		return nil, fmt.Errorf("envjson: %d registers exceed R1..R%d", len(spec.Regs), runtime.NumRegisters)
	}
	var views []*runtime.SubflowView
	for i, s := range spec.Subflows {
		v := &runtime.SubflowView{Handle: runtime.SubflowHandle(i + 1)}
		v.Ints[runtime.SbfID] = int64(i)
		v.Ints[runtime.SbfRTT] = int64(s.RTTms * 1000)
		v.Ints[runtime.SbfRTTAvg] = int64(s.RTTAvgMs * 1000)
		if s.RTTAvgMs == 0 {
			v.Ints[runtime.SbfRTTAvg] = v.Ints[runtime.SbfRTT]
		}
		v.Ints[runtime.SbfRTTVar] = int64(s.RTTVarMs * 1000)
		v.Ints[runtime.SbfCwnd] = s.Cwnd
		v.Ints[runtime.SbfSkbsInFlight] = s.InFlight
		v.Ints[runtime.SbfQueued] = s.Queued
		v.Ints[runtime.SbfThroughput] = s.Throughput
		v.Ints[runtime.SbfMSS] = s.MSS
		if s.MSS == 0 {
			v.Ints[runtime.SbfMSS] = 1460
		}
		v.Ints[runtime.SbfLostSkbs] = s.LostSkbs
		v.Ints[runtime.SbfRTO] = int64(s.RTOms * 1000)
		v.Ints[runtime.SbfLinkQueued] = s.LinkQueued
		v.Ints[runtime.SbfXRTT] = int64(s.XRTTms * 1000)
		v.Ints[runtime.SbfXLost] = s.XLost
		v.Ints[runtime.SbfXDelivered] = s.XDelivered
		v.Ints[runtime.SbfXQuar] = s.XQuar
		v.Bools[runtime.SbfLossy] = s.Lossy
		v.Bools[runtime.SbfTSQThrottled] = s.TSQThrottled
		v.Bools[runtime.SbfIsBackup] = s.Backup
		v.RWndFreeBytes = s.RWndFree
		if s.RWndFree == 0 {
			v.RWndFreeBytes = 1 << 20
		}
		views = append(views, v)
	}
	mk := func(specs []PacketSpec) ([]*runtime.PacketView, error) {
		var pkts []*runtime.PacketView
		for _, p := range specs {
			pv := &runtime.PacketView{Handle: runtime.PacketHandle(p.Seq + 1)}
			pv.Ints[runtime.PktSeq] = p.Seq
			pv.Ints[runtime.PktSize] = p.Size
			if p.Size == 0 {
				pv.Ints[runtime.PktSize] = 1460
			}
			pv.Ints[runtime.PktProp] = p.Prop
			pv.Ints[runtime.PktSentCount] = p.SentCount
			pv.Ints[runtime.PktAgeUS] = p.AgeUS
			pv.Ints[runtime.PktLastSentUS] = p.LastSentUS
			if p.LastSentUS == 0 && p.SentCount == 0 && len(p.SentOn) == 0 {
				pv.Ints[runtime.PktLastSentUS] = -1
			}
			for _, id := range p.SentOn {
				if id < 0 || id >= len(spec.Subflows) {
					return nil, fmt.Errorf("envjson: packet %d sent_on references unknown subflow %d", p.Seq, id)
				}
				pv.SentOnMask |= 1 << uint(id)
			}
			pkts = append(pkts, pv)
		}
		return pkts, nil
	}
	q, err := mk(spec.Q)
	if err != nil {
		return nil, err
	}
	qu, err := mk(spec.QU)
	if err != nil {
		return nil, err
	}
	rq, err := mk(spec.RQ)
	if err != nil {
		return nil, err
	}
	var regs [runtime.NumRegisters]int64
	copy(regs[:], spec.Regs)
	return runtime.NewEnv(views, q, qu, rq, &regs), nil
}

// FormatActions renders an action queue for the tool output, resolving
// handles back to human-readable packet seqs and subflow ids.
func FormatActions(env *runtime.Env) string {
	if len(env.Actions) == 0 {
		return "(no actions)\n"
	}
	var b strings.Builder
	for i, a := range env.Actions {
		switch a.Kind {
		case runtime.ActionPop:
			fmt.Fprintf(&b, "%2d: POP  seq %-6d from %s\n", i, int64(a.Packet)-1, a.Queue)
		case runtime.ActionPush:
			fmt.Fprintf(&b, "%2d: PUSH seq %-6d on subflow %d\n", i, int64(a.Packet)-1, int64(a.Subflow)-1)
		case runtime.ActionDrop:
			fmt.Fprintf(&b, "%2d: DROP seq %-6d\n", i, int64(a.Packet)-1)
		}
	}
	return b.String()
}

// Example returns a documented starting environment for `progmp-vet exec`.
func Example() string {
	return `{
  "subflows": [
    {"rtt_ms": 10, "cwnd": 10, "in_flight": 2, "throughput_bps": 3000000},
    {"rtt_ms": 40, "cwnd": 20, "in_flight": 1, "throughput_bps": 8000000, "backup": true}
  ],
  "q":  [{"seq": 0}, {"seq": 1}],
  "qu": [{"seq": -5, "sent_on": [0], "age_us": 12000, "last_sent_us": 12000}],
  "rq": [],
  "regs": [4194304]
}
`
}
