package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// JSONLEvent is the wire form of one event in the JSONL export. Field
// order (struct order) is the serialization order, so output is
// deterministic and golden-testable.
type JSONLEvent struct {
	AtUS int64  `json:"at_us"`
	Ev   string `json:"ev"`
	Conn int32  `json:"conn"`
	Exec uint64 `json:"exec"`
	Seq  int64  `json:"seq"`
	Sbf  int32  `json:"sbf"`
	Site int32  `json:"site"`
	Aux  int64  `json:"aux"`
}

// ToJSONL returns ev in the JSONL wire form — the same encoding
// WriteJSONL streams — for consumers that forward single events (the
// ctl subscription stream).
func (ev Event) ToJSONL() JSONLEvent { return toJSONL(ev) }

// toJSONL converts an Event to its wire form.
func toJSONL(ev Event) JSONLEvent {
	return JSONLEvent{
		AtUS: ev.At.Microseconds(),
		Ev:   ev.Kind.String(),
		Conn: ev.Conn,
		Exec: ev.Exec,
		Seq:  ev.Seq,
		Sbf:  ev.Sbf,
		Site: ev.Site,
		Aux:  ev.Aux,
	}
}

// WriteJSONL streams events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(toJSONL(ev)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream WriteJSONL wrote back into events. It
// refuses a line that is not one JSON record, names an unknown kind or
// carries a time outside [0, MaxInt64 ns], naming the line. Blank lines
// are skipped. A record holds whole microseconds, which is all either
// writer reads, so WriteJSONL(ReadJSONL(b)) reproduces b.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var rec JSONLEvent
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		kind, ok := KindFromString(rec.Ev)
		if !ok {
			return nil, fmt.Errorf("line %d: unknown event kind %q", line, rec.Ev)
		}
		if rec.AtUS < 0 || rec.AtUS > math.MaxInt64/int64(time.Microsecond) {
			return nil, fmt.Errorf("line %d: at_us %d out of range", line, rec.AtUS)
		}
		events = append(events, Event{
			At:   time.Duration(rec.AtUS) * time.Microsecond,
			Kind: kind,
			Conn: rec.Conn,
			Exec: rec.Exec,
			Seq:  rec.Seq,
			Sbf:  rec.Sbf,
			Site: rec.Site,
			Aux:  rec.Aux,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", line+1, err)
	}
	return events, nil
}

// chromeEvent is one entry of the Chrome trace_event JSON array
// (the "JSON Array Format" consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders events in Chrome trace_event format:
// scheduler executions become duration (B/E) slices on the
// connection's track, everything else becomes instant events on the
// subflow's track. Load the output in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ce)
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind.String(),
			TS:   float64(ev.At.Microseconds()),
			PID:  ev.Conn,
			TID:  ev.Sbf + 1, // track 0 is the connection itself
		}
		switch ev.Kind {
		case EvExecStart:
			ce.Name = fmt.Sprintf("exec %d", ev.Exec)
			ce.Ph = "B"
			ce.TID = 0
		case EvExecEnd:
			ce.Name = fmt.Sprintf("exec %d", ev.Exec)
			ce.Ph = "E"
			ce.TID = 0
		default:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"seq": ev.Seq, "exec": ev.Exec, "site": ev.Site, "aux": ev.Aux}
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
