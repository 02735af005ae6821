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
// Concurrency model: one table written in place under a sequence
// counter (a seqlock). The globals are eight atomic words and each
// destination is a cell of five atomic counters. Writers serialize on a
// mutex and run each write in a section that makes the sequence odd,
// mutates the table in place, and makes it even again; the epoch is
// half the sequence, so every write advances it by exactly one.
// Readers — the scheduler hot path among them — copy what they read
// inside a read section and redo the copy if the sequence moved while
// they read: no lock, no allocation, no write to shared memory, and a
// copy that validates belongs to one epoch. A scheduler execution thus
// sees a coherent cross-connection view, exactly like its
// per-connection environment snapshot.
//
// Destination names sit in a slice that is replaced, never written,
// on register or evict; the cell array is replaced only when it grows.
// Cold readers (the control plane, summaries, tests) call Load for an
// immutable Snapshot, which the store builds inside a read section and
// reuses while the epoch stands still.
//
// Destination names are interned to dense indices at subflow-establish
// time (DestID); the hot path addresses statistics by index, never by
// string, so feeding the environment costs array reads only.
package xstate

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// rttAlpha is the EWMA weight (1/8, RFC 6298 style) used when merging
// RTT samples from different connections into the shared estimate.
const rttAlpha = 8

// minCells is the cell array's first size; it doubles from there, so a
// table of 2^k destinations holds no spare cell.
const minCells = 4

// DestStats is one destination's statistic record, as a Snapshot holds
// it. A snapshot is immutable once Load returns it, so the fields may
// be read without synchronization.
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

// String formats the record as one aligned line, as mpsim's summary and
// progmpctl deststats print it.
func (d DestStats) String() string {
	return fmt.Sprintf("%-10s srtt=%-8v lost=%-5d quar=%-4d delivered=%d samples=%d",
		d.Name, time.Duration(d.SRTTUS)*time.Microsecond, d.Lost, d.Quarantines, d.Delivered, d.Samples)
}

// Snapshot is one epoch of the store, copied out by Store.Load.
// Readers may read any field freely; they must never write, because
// Load hands the same snapshot to every caller of its epoch.
//
//progmp:epochshared
type Snapshot struct {
	// Epoch increments on every write. Two loads returning the same
	// epoch return the identical snapshot.
	Epoch uint64
	// Globals is the shared global register file G1..G8.
	Globals [runtime.NumGlobals]int64

	// dests holds the destination slots, indexed by the dense ids
	// DestID hands out. Evicted slots are zero (Name == "") until a
	// later registration reuses them, so the slot count tracks the peak
	// live destination count rather than the cumulative churn.
	dests []DestStats
}

// Len returns the number of destination slots, evicted ones included:
// every id below it names a record.
func (s *Snapshot) Len() int { return len(s.dests) }

// All returns a copy of every live destination record of this epoch
// (evicted slots are skipped), sorted by name for stable output.
// Intended for the control plane and tests, not the hot path.
func (s *Snapshot) All() []DestStats {
	out := make([]DestStats, 0, len(s.dests))
	for _, d := range s.dests {
		if d.Name != "" {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// cell is one destination's statistics as the store holds them:
// counters written in place inside write sections and copied out
// inside read sections.
//
//progmp:epochshared
type cell struct {
	srtt, lost, delivered, quarantines, samples atomic.Int64
}

// table is everything a lock-free reader may touch.
//
//progmp:epochshared
type table struct {
	// seq is odd while a write section is open; the epoch is seq/2.
	seq     atomic.Uint64
	globals [runtime.NumGlobals]atomic.Int64
	// cells holds at least one cell per destination slot; it is
	// replaced, inside a write section, only when it grows.
	cells atomic.Pointer[[]cell]
	// names holds one name per destination slot ("" once evicted); it
	// is replaced, never written, on register or evict.
	names atomic.Pointer[[]string]
}

// Store is the shared-state store. The zero value is not ready; use
// NewStore.
type Store struct {
	t table

	// view caches a snapshot Load built, reused while its epoch is
	// current.
	view atomic.Pointer[Snapshot]

	mu  sync.Mutex     // serializes writers
	ids map[string]int // destination name → dense index

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

// NewStore creates an empty store at epoch 0. It publishes the empty
// table before any reader can see the store.
//
//progmp:publish
func NewStore() *Store {
	s := &Store{ids: make(map[string]int)}
	s.t.cells.Store(new([]cell))
	s.t.names.Store(new([]string))
	return s
}

// Instrument registers the store's metrics with reg (nil-safe):
// xstate.epochs (write sections), xstate.gsets (global-register
// writes), xstate.dests (destinations tracked).
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mEpochs = reg.Counter("xstate.epochs")
	s.mGSets = reg.Counter("xstate.gsets")
	s.mDests = reg.Gauge("xstate.dests")
	s.mDests.Set(int64(len(s.ids)))
}

// ---- Write sections ----

// beginWrite opens a write section: the sequence turns odd, so every
// read section that overlaps the write retries. Callers hold s.mu.
//
//progmp:publish
func (s *Store) beginWrite() { s.t.seq.Add(1) }

// endWrite closes the write section beginWrite opened and returns the
// epoch it published. Callers hold s.mu.
//
//progmp:publish
func (s *Store) endWrite() uint64 {
	s.mEpochs.Add(1)
	return s.t.seq.Add(1) / 2
}

// ---- Read sections ----

// ReadBegin opens a read section and returns the sequence ReadValid
// checks it against, waiting out a write section in progress.
//
//progmp:hotpath
//progmp:deterministic
func (s *Store) ReadBegin() uint64 {
	for {
		if seq := s.t.seq.Load(); seq&1 == 0 {
			return seq
		}
		goruntime.Gosched()
	}
}

// ReadValid reports whether the read section opened at seq saw no
// write: only then is what it copied one epoch, and otherwise the
// caller redoes the whole copy.
//
//progmp:hotpath
//progmp:deterministic
func (s *Store) ReadValid(seq uint64) bool { return s.t.seq.Load() == seq }

// ReadDest copies destination id's cross-connection properties (the
// scheduler's XRTT, XLOST, XDELIVERED and XQUAR) inside a read
// section. An unknown id reads zeros.
//
//progmp:hotpath
//progmp:deterministic
func (s *Store) ReadDest(id int) (srttUS, lost, delivered, quarantines int64) {
	cells := *s.t.cells.Load()
	if id < 0 || id >= len(cells) {
		return 0, 0, 0, 0
	}
	c := &cells[id]
	return c.srtt.Load(), c.lost.Load(), c.delivered.Load(), c.quarantines.Load()
}

// ReadGlobals copies the global register file into g inside a read
// section.
//
//progmp:hotpath
//progmp:deterministic
func (s *Store) ReadGlobals(g *[runtime.NumGlobals]int64) {
	for i := range g {
		g[i] = s.t.globals[i].Load()
	}
}

// Load returns the current epoch as an immutable snapshot, safe from
// any goroutine, never nil. The snapshot is copied out inside a read
// section and shared with every later Load until the next write, so
// the caller must treat it as read-only. It is for cold readers; the
// scheduler hot path copies what it reads with ReadBegin, ReadDest,
// ReadGlobals and ReadValid.
func (s *Store) Load() *Snapshot {
	if cur := s.view.Load(); cur != nil && cur.Epoch == s.Epoch() {
		return cur
	}
	// Racing Loads may cache an older epoch over a newer one; the
	// epoch check above then only misses once more.
	next := s.copyOut()
	s.view.Store(next)
	return next
}

// copyOut builds a snapshot of one epoch inside a read section.
//
//progmp:publish
func (s *Store) copyOut() *Snapshot {
	next := &Snapshot{}
	for {
		seq := s.ReadBegin()
		names, cells := *s.t.names.Load(), *s.t.cells.Load()
		if len(names) > len(cells) {
			continue // a registration overlapped the two loads
		}
		if cap(next.dests) < len(names) {
			next.dests = make([]DestStats, len(names))
		}
		next.dests = next.dests[:len(names)]
		for id, name := range names {
			c := &cells[id]
			next.dests[id] = DestStats{
				Name:        name,
				SRTTUS:      c.srtt.Load(),
				Lost:        c.lost.Load(),
				Delivered:   c.delivered.Load(),
				Quarantines: c.quarantines.Load(),
				Samples:     c.samples.Load(),
			}
		}
		s.ReadGlobals(&next.Globals)
		if s.ReadValid(seq) {
			next.Epoch = seq / 2
			return next
		}
	}
}

// Epoch returns the current epoch: the number of completed writes.
func (s *Store) Epoch() uint64 { return s.t.seq.Load() / 2 }

// ---- Global registers ----

// SetGlobal writes global register i (0-based) in one write section and
// returns the epoch that section published. Out-of-range writes are
// graceful no-ops (no exceptions by design, matching the register
// semantics of the model) and return the current epoch.
//
//progmp:publish
//progmp:hotpath
func (s *Store) SetGlobal(i int, v int64) uint64 {
	if i < 0 || i >= runtime.NumGlobals {
		return s.Epoch()
	}
	s.mu.Lock()
	s.beginWrite()
	s.t.globals[i].Store(v)
	e := s.endWrite()
	s.mGSets.Add(1)
	s.mu.Unlock()
	return e
}

// SetGlobals applies every write marked in the dirty bitmask (bit i ↔
// register i) from vals in one write section and returns the epoch it
// published; an empty mask writes nothing and returns the current
// epoch. It is the batched form the substrate uses to publish a
// scheduler execution's GSETs.
//
//progmp:publish
//progmp:hotpath
func (s *Store) SetGlobals(dirty uint32, vals *[runtime.NumGlobals]int64) uint64 {
	if dirty == 0 || vals == nil {
		return s.Epoch()
	}
	s.mu.Lock()
	s.beginWrite()
	n := 0
	for i := 0; i < runtime.NumGlobals; i++ {
		if dirty&(1<<uint(i)) != 0 {
			s.t.globals[i].Store(vals[i])
			n++
		}
	}
	e := s.endWrite()
	s.mGSets.Add(int64(n))
	s.mu.Unlock()
	return e
}

// ---- Destination registry ----

// DestID interns a destination name, returning its dense index. The
// first caller for a name registers it (one write, with zero
// statistics); later callers get the same index. Each call acquires
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
		s.lastUse[id] = s.Epoch()
		return id
	}
	old := *s.t.names.Load()
	var id int
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = len(old)
		s.refs = append(s.refs, 0)
		s.lastUse = append(s.lastUse, 0)
	}
	names := make([]string, max(len(old), id+1))
	copy(names, old)
	names[id] = name
	s.beginWrite()
	if cells := *s.t.cells.Load(); id >= len(cells) {
		grown := make([]cell, max(minCells, 2*len(cells)))
		for i := range cells {
			grown[i].copyFrom(&cells[i])
		}
		s.t.cells.Store(&grown)
	} else {
		cells[id].reset()
	}
	s.t.names.Store(&names)
	s.lastUse[id] = s.endWrite()
	s.ids[name] = id
	s.refs[id] = 1
	s.mDests.Set(int64(len(s.ids)))
	return id
}

// copyFrom copies o's counters into c inside a write section.
//
//progmp:publish
func (c *cell) copyFrom(o *cell) {
	c.srtt.Store(o.srtt.Load())
	c.lost.Store(o.lost.Load())
	c.delivered.Store(o.delivered.Load())
	c.quarantines.Store(o.quarantines.Load())
	c.samples.Store(o.samples.Load())
}

// reset zeroes c inside a write section.
//
//progmp:publish
func (c *cell) reset() { c.copyFrom(&cell{}) }

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
	s.lastUse[id] = s.Epoch()
}

// EvictIdle reclaims every unreferenced destination whose last use is
// at least idleEpochs epochs old, returning the number evicted. One
// write covers the whole sweep (none when nothing qualifies). Evicted
// slots are zeroed and queued for reuse by the next registration,
// bounding fleet-scale memory under destination churn: without
// eviction every interned name lives for the store's lifetime. Victims
// are processed in index order so churn workloads reuse slots
// deterministically.
//
//progmp:publish
//progmp:deterministic
func (s *Store) EvictIdle(idleEpochs uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.Epoch()
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
	names := append([]string(nil), *s.t.names.Load()...)
	cells := *s.t.cells.Load()
	s.beginWrite()
	for _, id := range victims {
		names[id] = ""
		cells[id].reset()
		s.free = append(s.free, id)
	}
	s.t.names.Store(&names)
	s.endWrite()
	s.mDests.Set(int64(len(s.ids)))
	return len(victims)
}

// NumDests returns the number of registered destinations.
func (s *Store) NumDests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// ---- Statistics feeds ----

// beginDest opens a write section on destination id's cell and returns
// it, or returns nil, opening nothing, for an unknown id. Callers hold
// s.mu and close the section with endDest.
//
//progmp:publish
//progmp:hotpath
func (s *Store) beginDest(id int) *cell {
	if id < 0 || id >= len(s.refs) {
		return nil
	}
	s.beginWrite()
	return &(*s.t.cells.Load())[id]
}

// endDest closes the write section beginDest opened on id.
//
//progmp:publish
//progmp:hotpath
func (s *Store) endDest(id int) { s.lastUse[id] = s.endWrite() }

// RecordRTT merges one RTT sample (µs) into destination id's shared
// smoothed estimate; non-positive samples are ignored.
//
//progmp:publish
//progmp:hotpath
func (s *Store) RecordRTT(id int, rttUS int64) { s.RecordAck(id, rttUS, 0) }

// RecordAck folds one acknowledgement into destination id in one write:
// the RTT sample it yielded (µs; 0 when Karn's rule withheld it) as
// RecordRTT merges it, and the bytes it delivered. An input <= 0 is
// ignored, and nothing is written when both are.
//
//progmp:publish
//progmp:hotpath
func (s *Store) RecordAck(id int, rttUS, bytes int64) {
	if rttUS <= 0 && bytes <= 0 {
		return
	}
	s.mu.Lock()
	if c := s.beginDest(id); c != nil {
		if rttUS > 0 {
			c.mergeRTT(rttUS)
		}
		if bytes > 0 {
			c.delivered.Add(bytes)
		}
		s.endDest(id)
	}
	s.mu.Unlock()
}

// mergeRTT blends one RTT sample into the shared estimate: the first
// sample seeds it, later samples blend in with weight 1/8 (RFC 6298
// style), so estimates from many connections converge without any one
// dominating.
//
//progmp:publish
//progmp:hotpath
func (c *cell) mergeRTT(rttUS int64) {
	if n := c.samples.Load(); n == 0 {
		c.srtt.Store(rttUS)
	} else {
		srtt := c.srtt.Load()
		c.srtt.Store(srtt + (rttUS-srtt)/rttAlpha)
	}
	c.samples.Add(1)
}

// RecordLoss counts n loss events on destination id.
//
//progmp:publish
//progmp:hotpath
func (s *Store) RecordLoss(id int, n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	if c := s.beginDest(id); c != nil {
		c.lost.Add(n)
		s.endDest(id)
	}
	s.mu.Unlock()
}

// RecordQuarantine counts one quarantine signal on destination id.
//
//progmp:publish
//progmp:hotpath
func (s *Store) RecordQuarantine(id int) {
	s.mu.Lock()
	if c := s.beginDest(id); c != nil {
		c.quarantines.Add(1)
		s.endDest(id)
	}
	s.mu.Unlock()
}

// ---- Inspection ----

// String summarizes the store for diagnostics.
func (s *Store) String() string {
	snap := s.Load()
	return fmt.Sprintf("xstate{epoch %d, %d dests}", snap.Epoch, snap.Len())
}
