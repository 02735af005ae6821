// Package xstate is the cross-connection shared-state store: a small
// in-memory database that MPTCP connections on the same host consult
// and feed while scheduling. It holds two kinds of state:
//
//   - global registers G1..G8, shared by every attached connection —
//     the cross-connection analogue of the per-connection registers
//     R1..R8 (§3.3 of the paper), addressable from scheduler programs
//     (GSET / G1..G8) and over the control plane;
//   - per-destination path statistics — smoothed RTT, loss events,
//     delivered bytes, and quarantine signals — keyed by path identity
//     (the subflow/link name), so a connection can steer around a path
//     that *other* connections have observed degrading ("More Than The
//     Sum Of Its Parts": sharing path state across MPTCP connections).
//
// Concurrency model: RCU-style epoch snapshots. All state lives in an
// immutable Snapshot published through an atomic pointer. Writers
// serialize on a mutex, copy what they change, bump the epoch, and
// publish with a single atomic store. Readers — the scheduler hot path
// among them — perform one atomic load and then read plain memory:
// wait-free, zero allocations, and torn reads are structurally
// impossible because a snapshot is never mutated after publication.
// Within one snapshot every value belongs to the same epoch, so a
// scheduler execution sees a coherent cross-connection view, exactly
// like its per-connection environment snapshot.
//
// A snapshot is a root — epoch, globals, slot count — plus a fixed
// fan-out of numParts parts holding the destination records. A write
// copies the root and only the parts it touches: a globals write the
// root alone, a statistics write the root and one part. Untouched parts
// are shared with earlier epochs, which is safe because no published
// part is ever written. Publish cost thus grows with the table size
// divided by numParts, not with the table size.
//
// Destination names are interned to dense indices at subflow-establish
// time (DestID); the hot path addresses statistics by index, never by
// string, so feeding the environment costs array reads only.
package xstate

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// rttAlpha is the EWMA weight (1/8, RFC 6298 style) used when merging
// RTT samples from different connections into the shared estimate.
const rttAlpha = 8

// numParts is a snapshot's destination fan-out: slot id lives in part
// id >> shift, so a record write copies about 1/numParts of the table.
// It trades the root's size (one slice header per part, copied by every
// write) against the part's (copied by every record write); at the 64
// destinations of a 32-group fleet the two are about equal.
const numParts = 16

// DestStats is the per-destination statistic record inside a snapshot.
// Fields are plain values: a published snapshot is immutable, so they
// may be read without synchronization.
//
//progmp:epochshared
type DestStats struct {
	// Name is the interned path identity (subflow/link name).
	Name string `json:"name"`
	// SRTTUS is the cross-connection smoothed RTT in microseconds;
	// 0 until the first sample arrives.
	SRTTUS int64 `json:"srtt_us"`
	// Lost counts loss events observed on this destination.
	Lost int64 `json:"lost"`
	// Delivered is the cumulative delivered byte count.
	Delivered int64 `json:"delivered"`
	// Quarantines counts guard quarantine signals attributed to
	// connections while scheduling over this destination.
	Quarantines int64 `json:"quarantines"`
	// Samples counts RTT samples merged into SRTTUS.
	Samples int64 `json:"samples"`
}

// Snapshot is one immutable epoch of the store. Readers obtained it
// from Store.Load and may read any field freely; they must never write.
//
//progmp:epochshared
type Snapshot struct {
	// Epoch increments on every published write. Two loads returning
	// the same epoch are the identical snapshot.
	Epoch uint64
	// Globals is the shared global register file G1..G8.
	Globals [runtime.NumGlobals]int64

	// The destination slots, indexed by the dense ids DestID hands out:
	// slot id is parts[id>>shift][id&(1<<shift-1)], and every part but
	// the last holding a slot is full. Evicted slots are zeroed
	// (Name == "") and reused by later registrations, so n tracks the
	// peak live destination count rather than the cumulative churn.
	n     int
	shift uint
	parts [numParts][]DestStats
	// owned marks the parts an unpublished snapshot has already copied
	// for its write; meaningless once published.
	owned uint32
}

// Len returns the number of destination slots, evicted ones included:
// every id below it resolves through Stats.
func (s *Snapshot) Len() int { return s.n }

// Stats returns the statistics for destination id, or nil when the id
// is unknown to this epoch (registered after the snapshot published).
//
//progmp:hotpath
//progmp:deterministic
func (s *Snapshot) Stats(id int) *DestStats {
	if s == nil || id < 0 || id >= s.n {
		return nil
	}
	return &s.parts[id>>s.shift][id&(1<<s.shift-1)]
}

// All returns a copy of every live destination record of this epoch
// (evicted slots are skipped), sorted by name for stable output.
// Intended for the control plane and tests, not the hot path.
func (s *Snapshot) All() []DestStats {
	out := make([]DestStats, 0, s.n)
	for _, part := range s.parts {
		for _, d := range part {
			if d.Name != "" {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// slot returns a writable pointer to slot id of s, a snapshot not yet
// published. The part holding it is copied first unless s already owns
// it, so a sweep over many slots copies each part once.
//
//progmp:publish
func (s *Snapshot) slot(id int) *DestStats {
	p := id >> s.shift
	if s.owned&(1<<p) == 0 {
		s.parts[p] = append([]DestStats(nil), s.parts[p]...)
		s.owned |= 1 << p
	}
	return &s.parts[p][id&(1<<s.shift-1)]
}

// grow appends one zero slot to s, a snapshot not yet published, and
// returns it. When every part is full it first regroups: each part
// doubles in capacity, absorbing its neighbour, so the table stays
// numParts wide. Regrouping copies the whole table, but only a
// registration can trigger it, once per doubling of the slot count.
//
//progmp:publish
func (s *Snapshot) grow() *DestStats {
	if s.n == numParts<<s.shift {
		var parts [numParts][]DestStats
		for q := 0; q < numParts/2; q++ {
			a := s.parts[2*q]
			parts[q] = append(a[:len(a):len(a)], s.parts[2*q+1]...)
		}
		s.parts = parts
		s.shift++
		s.owned = 1<<numParts - 1
	}
	id := s.n
	s.n++
	p := id >> s.shift
	part := s.parts[p]
	s.parts[p] = append(part[:len(part):len(part)], DestStats{})
	s.owned |= 1 << p
	return s.slot(id)
}

// Store is the shared-state store. The zero value is not ready; use
// NewStore.
type Store struct {
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
	ids  map[string]int // destination name → dense index

	// Eviction bookkeeping, indexed by destination slot. refs counts
	// live DestID acquisitions (released by ReleaseDest); lastUse is
	// the epoch of the most recent acquire/release/feed; free lists
	// evicted slots available for reuse.
	refs    []int32
	lastUse []uint64
	free    []int

	// Optional metrics, set by Instrument; nil-safe handles.
	mEpochs *obs.Counter
	mGSets  *obs.Counter
	mDests  *obs.Gauge
}

// NewStore creates an empty store at epoch 0.
func NewStore() *Store {
	s := &Store{ids: make(map[string]int)}
	s.snap.Store(&Snapshot{})
	return s
}

// Instrument registers the store's metrics with reg (nil-safe):
// xstate.epochs (published writes), xstate.gsets (global-register
// writes), xstate.dests (destinations tracked).
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mEpochs = reg.Counter("xstate.epochs")
	s.mGSets = reg.Counter("xstate.gsets")
	s.mDests = reg.Gauge("xstate.dests")
	s.mDests.Set(int64(len(s.ids)))
}

// Load returns the current snapshot: one atomic load, safe from any
// goroutine, never nil. The caller must treat it as read-only.
//
//progmp:hotpath
//progmp:deterministic
func (s *Store) Load() *Snapshot {
	return s.snap.Load()
}

// Epoch returns the current epoch.
func (s *Store) Epoch() uint64 { return s.Load().Epoch }

// publish installs next as the new snapshot. Callers hold s.mu and
// must have fully initialized next (no further writes after this).
//
//progmp:publish
func (s *Store) publish(next *Snapshot) {
	next.Epoch = s.snap.Load().Epoch + 1
	s.snap.Store(next)
	s.mEpochs.Add(1)
}

// clone copies the current snapshot's root into a fresh one the caller
// may mutate before publish. Its parts are still the published epoch's:
// records are written only through slot and grow, which copy a part
// first. Callers hold s.mu.
//
//progmp:publish
func (s *Store) clone() *Snapshot {
	next := *s.snap.Load()
	next.owned = 0
	return &next
}

// ---- Global registers ----

// Global reads global register i (0-based); out of range reads 0.
func (s *Store) Global(i int) int64 {
	if i < 0 || i >= runtime.NumGlobals {
		return 0
	}
	return s.Load().Globals[i]
}

// Globals returns the whole global register file of the current epoch.
func (s *Store) Globals() [runtime.NumGlobals]int64 {
	return s.Load().Globals
}

// SetGlobal writes global register i (0-based) and publishes a new
// epoch. Out-of-range writes are graceful no-ops (no exceptions by
// design, matching the register semantics of the model).
//
//progmp:publish
func (s *Store) SetGlobal(i int, v int64) {
	if i < 0 || i >= runtime.NumGlobals {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.clone()
	next.Globals[i] = v
	s.publish(next)
	s.mGSets.Add(1)
}

// SetGlobals applies every write marked in the dirty bitmask (bit i ↔
// register i) from vals in one published epoch. It is the batched form
// the substrate uses to publish a scheduler execution's GSETs.
//
//progmp:publish
func (s *Store) SetGlobals(dirty uint32, vals *[runtime.NumGlobals]int64) {
	if dirty == 0 || vals == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.clone()
	n := 0
	for i := 0; i < runtime.NumGlobals; i++ {
		if dirty&(1<<uint(i)) != 0 {
			next.Globals[i] = vals[i]
			n++
		}
	}
	s.publish(next)
	s.mGSets.Add(int64(n))
}

// ---- Destination registry ----

// DestID interns a destination name, returning its dense index. The
// first caller for a name registers it (publishing a new epoch with a
// zero record); later callers get the same index. Each call acquires
// one reference; pair it with ReleaseDest at teardown or the record is
// pinned forever and EvictIdle can never reclaim it. Indices are
// stable while referenced; an evicted slot may be reassigned to a
// different name by a later registration.
//
//progmp:publish
func (s *Store) DestID(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[name]; ok {
		s.refs[id]++
		s.lastUse[id] = s.snap.Load().Epoch
		return id
	}
	next := s.clone()
	var id int
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
		*next.slot(id) = DestStats{Name: name}
	} else {
		id = next.n
		*next.grow() = DestStats{Name: name}
		s.refs = append(s.refs, 0)
		s.lastUse = append(s.lastUse, 0)
	}
	s.ids[name] = id
	s.refs[id] = 1
	s.publish(next)
	s.lastUse[id] = next.Epoch
	s.mDests.Set(int64(len(s.ids)))
	return id
}

// ReleaseDest drops one reference to destination id (acquired by
// DestID). The record and its statistics stay readable until EvictIdle
// reclaims it, so short-lived reconnects to the same destination still
// find the shared history. Unknown ids are ignored.
//
//progmp:deterministic
func (s *Store) ReleaseDest(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.refs) {
		return
	}
	if s.refs[id] > 0 {
		s.refs[id]--
	}
	s.lastUse[id] = s.snap.Load().Epoch
}

// EvictIdle reclaims every unreferenced destination whose last use is
// at least idleEpochs epochs old, returning the number evicted. One
// epoch publishes for the whole sweep (none when nothing qualifies).
// Evicted slots are zeroed in the snapshot and queued for reuse by the
// next registration, bounding fleet-scale memory under destination
// churn: without eviction every interned name lives for the store's
// lifetime. Victims are processed in index order so churn workloads
// reuse slots deterministically.
//
//progmp:publish
//progmp:deterministic
func (s *Store) EvictIdle(idleEpochs uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load().Epoch
	var victims []int
	//progmp:ignore deterministic iteration order is invisible: victims are sorted before any effect
	for name, id := range s.ids {
		if s.refs[id] == 0 && cur-s.lastUse[id] >= idleEpochs {
			victims = append(victims, id)
			delete(s.ids, name)
		}
	}
	if len(victims) == 0 {
		return 0
	}
	sort.Ints(victims)
	next := s.clone()
	for _, id := range victims {
		*next.slot(id) = DestStats{}
		s.free = append(s.free, id)
	}
	s.publish(next)
	s.mDests.Set(int64(len(s.ids)))
	return len(victims)
}

// LookupDest returns the dense index for name without registering it;
// ok is false when the name is unknown.
func (s *Store) LookupDest(name string) (id int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok = s.ids[name]
	return id, ok
}

// NumDests returns the number of registered destinations.
func (s *Store) NumDests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// ---- Statistics feeds ----

// mutateDest applies fn to destination id's record in a new epoch that
// copies the root and the one part holding it, and publishes. Unknown
// ids are ignored.
//
//progmp:publish
func (s *Store) mutateDest(id int, fn func(*DestStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= s.snap.Load().n {
		return
	}
	next := s.clone()
	fn(next.slot(id))
	s.publish(next)
	s.lastUse[id] = next.Epoch
}

// RecordRTT merges one RTT sample (µs) into destination id's shared
// smoothed estimate; non-positive samples are ignored.
//
//progmp:publish
func (s *Store) RecordRTT(id int, rttUS int64) {
	if rttUS <= 0 {
		return
	}
	s.mutateDest(id, func(d *DestStats) { d.mergeRTT(rttUS) })
}

// RecordAck folds one acknowledgement into destination id in one epoch:
// the RTT sample it yielded (µs; 0 when Karn's rule withheld it) as
// RecordRTT merges it, and the bytes it delivered. An input <= 0 is
// ignored, and nothing publishes when both are.
//
//progmp:publish
func (s *Store) RecordAck(id int, rttUS, bytes int64) {
	if rttUS <= 0 && bytes <= 0 {
		return
	}
	s.mutateDest(id, func(d *DestStats) {
		if rttUS > 0 {
			d.mergeRTT(rttUS)
		}
		if bytes > 0 {
			d.Delivered += bytes
		}
	})
}

// mergeRTT blends one RTT sample into the shared estimate: the first
// sample seeds it, later samples blend in with weight 1/8 (RFC 6298
// style), so estimates from many connections converge without any one
// dominating.
//
//progmp:publish
func (d *DestStats) mergeRTT(rttUS int64) {
	if d.Samples == 0 {
		d.SRTTUS = rttUS
	} else {
		d.SRTTUS += (rttUS - d.SRTTUS) / rttAlpha
	}
	d.Samples++
}

// RecordLoss counts n loss events on destination id.
//
//progmp:publish
func (s *Store) RecordLoss(id int, n int64) {
	if n <= 0 {
		return
	}
	s.mutateDest(id, func(d *DestStats) { d.Lost += n })
}

// RecordQuarantine counts one quarantine signal on destination id.
//
//progmp:publish
func (s *Store) RecordQuarantine(id int) {
	s.mutateDest(id, func(d *DestStats) { d.Quarantines++ })
}

// ---- Inspection ----

// All returns the current epoch's live destination records, name-sorted
// (see Snapshot.All).
func (s *Store) All() []DestStats { return s.Load().All() }

// String summarizes the store for diagnostics.
func (s *Store) String() string {
	snap := s.Load()
	return fmt.Sprintf("xstate{epoch %d, %d dests}", snap.Epoch, snap.Len())
}
