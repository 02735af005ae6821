package ctl

import "encoding/json"

// verbs is the typed control-plane vocabulary, spelled once over the one
// thing its two transports differ in — how a Request becomes a raw
// result: Client.Call on one connection, ReClient.Do through the retry
// machinery (which replays only IdempotentVerb requests). Both embed
// it, so every verb has one signature and one wire shape.
type verbs func(Request) (json.RawMessage, error)

func (do verbs) call(req Request, out any) error {
	raw, err := do(req)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Ping returns the server's virtual clock.
func (do verbs) Ping() (PingResult, error) {
	var out PingResult
	err := do.call(Request{Verb: VerbPing}, &out)
	return out, err
}

// List returns the registered connections with their scheduler,
// registers, and subflow stats.
func (do verbs) List() (ListResult, error) {
	var out ListResult
	err := do.call(Request{Verb: VerbList}, &out)
	return out, err
}

// Schedulers returns the names compile and swap accept.
func (do verbs) Schedulers() ([]string, error) {
	var out SchedulersResult
	err := do.call(Request{Verb: VerbSchedulers}, &out)
	return out.Names, err
}

// Compile verifies and compiles a scheduler without installing it.
// Either name (corpus lookup) or src (inline program) must be set.
func (do verbs) Compile(name, src, backend string) (CompileResult, error) {
	var out CompileResult
	err := do.call(Request{Verb: VerbCompile, Name: name, Src: src, Backend: backend}, &out)
	return out, err
}

// Swap hot-swaps the scheduler of connection conn (0 = first). Unless
// force is set the server refuses programs carrying analyzer warnings
// (the returned error is a *DiagError with the structured findings) and
// fleet-blocked programs; analyzer errors always refuse.
func (do verbs) Swap(conn int, name, src, backend string, force bool) (SwapResult, error) {
	var out SwapResult
	err := do.call(Request{Verb: VerbSwap, Conn: conn, Name: name, Src: src, Backend: backend, Force: force}, &out)
	return out, err
}

// GetReg reads scheduler register reg of connection conn.
func (do verbs) GetReg(conn, reg int) (int64, error) {
	var out RegResult
	err := do.call(Request{Verb: VerbGetReg, Conn: conn, Reg: reg}, &out)
	return out.Value, err
}

// SetReg writes scheduler register reg of connection conn.
func (do verbs) SetReg(conn, reg int, value int64) error {
	return do.call(Request{Verb: VerbSetReg, Conn: conn, Reg: reg, Value: value}, nil)
}

// Send enqueues bytes on connection conn with scheduling intent prop.
func (do verbs) Send(conn, bytes int, prop int64) error {
	return do.call(Request{Verb: VerbSend, Conn: conn, Bytes: bytes, Prop: prop}, nil)
}

// GGet reads shared-store global register reg (0-based) and the store
// epoch the value belongs to.
func (do verbs) GGet(reg int) (GlobalResult, error) {
	var out GlobalResult
	err := do.call(Request{Verb: VerbGGet, Reg: reg}, &out)
	return out, err
}

// GSet writes shared-store global register reg (0-based); the result
// reports the epoch the write published. A ReClient does not replay it
// on transport failure: a lost response leaves it unknown whether the
// write published, and a blind replay could clobber a concurrent
// scheduler GSET with a stale value.
func (do verbs) GSet(reg int, value int64) (GlobalResult, error) {
	var out GlobalResult
	err := do.call(Request{Verb: VerbGSet, Reg: reg, Value: value}, &out)
	return out, err
}

// DestStats dumps the shared store's per-destination path statistics,
// name-sorted, all from the single epoch reported.
func (do verbs) DestStats() (DestStatsResult, error) {
	var out DestStatsResult
	err := do.call(Request{Verb: VerbDestStats}, &out)
	return out, err
}

// Metrics snapshots the server's metrics registry.
func (do verbs) Metrics() (MetricsResult, error) {
	var out MetricsResult
	err := do.call(Request{Verb: VerbMetrics}, &out)
	return out, err
}

// MetricsAgg fetches the fleet-wide aggregated metrics. Format "json"
// (or "") returns the structured snapshot, "text" the OpenMetrics
// exposition.
func (do verbs) MetricsAgg(format string) (MetricsAggResult, error) {
	var out MetricsAggResult
	err := do.call(Request{Verb: VerbMetricsAgg, Format: format}, &out)
	return out, err
}

// Drain asks the server to shut down gracefully: stop accepting,
// finish inflight requests, close subscriptions, then close. The
// acknowledgement arrives before the drain begins; expect the
// connection to end shortly after.
func (do verbs) Drain() (DrainResult, error) {
	var out DrainResult
	err := do.call(Request{Verb: VerbDrain}, &out)
	return out, err
}
