package guard

import (
	"sync"
	"time"

	"progmp/internal/mptcp/sched"
	"progmp/internal/obs"
)

// Fleet is the failure-containment tier above per-connection
// supervision: it watches quarantines across every enrolled Supervisor
// and escalates when the *same program* misbehaves on many
// *different connections*. A per-connection quarantine says "this
// execution context went bad"; the same program quarantining on K
// connections says "the program itself is poison" — so the fleet
// blocks it everywhere at once instead of letting every remaining
// connection discover the problem three strikes at a time:
//
//   - every supervisor currently running the program is forced into
//     quarantine serving native MinRTT (not its per-connection
//     fallback: a fleet block is a verdict on the program, and the
//     previous program in a hot-swap chain may be the same author's);
//   - the control plane refuses to compile or swap the program onto
//     any connection without an explicit force;
//   - after a clean backoff window — doubling on every re-block, like
//     the per-connection probation backoff — the block lifts and every
//     affected supervisor goes on ordinary probation trial.
//
// A Fleet belongs to one simulation engine: enrollment bookkeeping is
// mutex-guarded (the control plane queries Blocked from its own
// goroutines), but escalation calls into Supervisors, which are owned
// by the engine goroutine, so quarantines and lifts must originate
// there — they do, because strikes happen during scheduling and the
// lift timer runs on the engine's After hook.
type Fleet struct {
	mu       sync.Mutex
	cfg      FleetConfig
	programs map[string]*fleetProgram

	blockedCount int64 // programs currently blocked (gauge)

	tracer   *obs.Tracer
	mBlocks  *obs.Counter
	mLifts   *obs.Counter
	gBlocked *obs.Gauge
}

// The shipped fleet policy.
const (
	// blockThreshold is K: how many distinct connections must
	// quarantine the same program before it is fleet-blocked.
	blockThreshold = 3
	// cleanWindow is the first block duration; it doubles on every
	// re-block of the same program up to fleetMaxBackoff.
	cleanWindow     = 10 * time.Second
	fleetMaxBackoff = 10 * time.Minute
)

// FleetConfig wires a Fleet to its event loop. The zero value is
// usable, but without the After wiring a blocked program stays blocked
// (no lift timer). The policy itself is the constants above.
type FleetConfig struct {
	// Now is the virtual clock used to timestamp events (nil: events
	// carry time 0).
	Now func() time.Duration
	// After schedules fn on the driving event loop. Required for the
	// clean-window lift; nil leaves blocked programs blocked forever.
	After func(d time.Duration, fn func())
}

// fleetProgram is the per-program escalation state.
type fleetProgram struct {
	sups        map[*Supervisor]bool // enrolled: currently running this program
	quarantined map[*Supervisor]bool // distinct connections quarantined since the last lift
	blocked     bool
	window      time.Duration // next clean window (doubles per block)
}

// NewFleet creates a fleet tier.
func NewFleet(cfg FleetConfig) *Fleet {
	return &Fleet{cfg: cfg, programs: map[string]*fleetProgram{}}
}

// Instrument attaches the fleet to a tracer and a metrics registry
// (either may be nil). Fleet events carry Conn -1: they are about a
// program across connections, not any one connection.
func (f *Fleet) Instrument(t *obs.Tracer, reg *obs.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = t
	if reg != nil {
		f.mBlocks = reg.Counter("guard.fleet_blocks")
		f.mLifts = reg.Counter("guard.fleet_lifts")
		f.gBlocked = reg.Gauge("guard.fleet_blocked")
	}
}

// Enroll registers sup as running program, unenrolling it from any
// previous program first — call it when installing a supervised
// scheduler and again after every hot-swap retarget. Safe on nil.
func (f *Fleet) Enroll(program string, sup *Supervisor) {
	if f == nil || sup == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if sup.fleet == f && sup.fleetProgram == program {
		return
	}
	f.unenrollLocked(sup)
	sup.fleet = f
	sup.fleetProgram = program
	p := f.program(program)
	p.sups[sup] = true
}

func (f *Fleet) unenrollLocked(sup *Supervisor) {
	if sup.fleetProgram == "" {
		return
	}
	if p, ok := f.programs[sup.fleetProgram]; ok {
		delete(p.sups, sup)
		delete(p.quarantined, sup)
	}
}

// program returns (creating if needed) the per-program state; call
// under f.mu.
func (f *Fleet) program(name string) *fleetProgram {
	p, ok := f.programs[name]
	if !ok {
		p = &fleetProgram{
			sups:        map[*Supervisor]bool{},
			quarantined: map[*Supervisor]bool{},
			window:      cleanWindow,
		}
		f.programs[name] = p
	}
	return p
}

// Blocked reports whether program is currently fleet-blocked — the
// control plane's admission check for compile and swap. Safe on nil.
func (f *Fleet) Blocked(program string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.programs[program]
	return ok && p.blocked
}

// noteQuarantine records that sup quarantined its program; at
// blockThreshold distinct connections the program is fleet-blocked.
// Called from Supervisor.quarantine on the engine goroutine.
func (f *Fleet) noteQuarantine(program string, sup *Supervisor) {
	f.mu.Lock()
	p, ok := f.programs[program]
	if !ok || !p.sups[sup] || p.blocked {
		f.mu.Unlock()
		return
	}
	p.quarantined[sup] = true
	if len(p.quarantined) < blockThreshold {
		f.mu.Unlock()
		return
	}
	f.blockLocked(program, p)
	f.mu.Unlock()
}

// Block force-blocks a program immediately, with the same escalation
// and lift behaviour as an automatic block. It reports whether the
// program was newly blocked. It is Go-only API: no ctl verb or
// command calls it.
//
//progmp:ignore testonly Go-only operator API; the ctl tests stage a fleet block through it
func (f *Fleet) Block(program string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.program(program)
	if p.blocked {
		return false
	}
	f.blockLocked(program, p)
	return true
}

// blockLocked escalates: force-quarantine every connection running the
// program onto native MinRTT, refuse new installs, and schedule the
// clean-window lift. Call under f.mu.
func (f *Fleet) blockLocked(name string, p *fleetProgram) {
	p.blocked = true
	window := p.window
	p.window = min(2*p.window, fleetMaxBackoff)
	for sup := range p.sups {
		sup.FleetBlock()
	}
	f.blockedCount++
	f.mBlocks.Add(1)
	f.gBlocked.Set(f.blockedCount)
	f.event(obs.EvFleetBlock, int64(len(p.sups)), blockThreshold)
	if f.cfg.After != nil {
		f.cfg.After(window, func() { f.lift(name) })
	}
}

// lift ends a block after its clean window: the program may be
// installed again and every affected supervisor goes on ordinary
// probation trial.
func (f *Fleet) lift(name string) {
	f.mu.Lock()
	p, ok := f.programs[name]
	if !ok || !p.blocked {
		f.mu.Unlock()
		return
	}
	p.blocked = false
	for sup := range p.quarantined {
		delete(p.quarantined, sup)
	}
	var lifted int64
	for sup := range p.sups {
		if sup.fleetBlocked {
			lifted++
		}
		sup.FleetLift()
	}
	f.blockedCount--
	f.mLifts.Add(1)
	f.gBlocked.Set(f.blockedCount)
	f.event(obs.EvFleetLift, lifted, 0)
	f.mu.Unlock()
}

// event records one fleet transition through the attached tracer.
func (f *Fleet) event(kind obs.EventKind, aux int64, site int32) {
	if f.tracer == nil {
		return
	}
	var at time.Duration
	if f.cfg.Now != nil {
		at = f.cfg.Now()
	}
	f.tracer.Record(obs.Event{At: at, Kind: kind, Conn: -1, Seq: -1, Sbf: -1, Aux: aux, Site: site})
}

// ---- Supervisor side of the fleet protocol ----

// FleetBlock forces the supervisor into quarantine under a fleet-wide
// block: the connection serves native MinRTT — not the per-connection
// fallback — until FleetLift, and the probation timer is disarmed (a
// pending beginProbation fires into the fleetBlocked guard). Called by
// the fleet on the engine goroutine.
func (s *Supervisor) FleetBlock() {
	if s.fleetBlocked {
		return
	}
	s.fleetBlocked = true
	s.blockSavedFallback = s.fallback
	s.fallback = sched.MinRTT{}
	if s.state != StateQuarantined {
		s.state = StateQuarantined
		s.strikes = 0
		s.stallRun = 0
		s.trialClean = 0
		s.gState.Set(int64(StateQuarantined))
	}
	if s.cfg.Wake != nil {
		s.cfg.Wake()
	}
}

// FleetLift ends a fleet block on this supervisor: the saved fallback
// is restored and the user scheduler goes on ordinary probation trial.
func (s *Supervisor) FleetLift() {
	if !s.fleetBlocked {
		return
	}
	s.fleetBlocked = false
	if s.blockSavedFallback != nil {
		s.fallback = s.blockSavedFallback
		s.blockSavedFallback = nil
	}
	s.beginProbation(s.probationGen)
}

// ReEnroll re-registers the supervisor under a new program name with
// its current fleet — the hot-swap path, where the supervisor survives
// but the program it runs changes. No-op when not enrolled.
func (s *Supervisor) ReEnroll(program string) {
	if s.fleet != nil {
		s.fleet.Enroll(program, s)
	}
}

// FleetBlocked reports whether this supervisor is held in quarantine by
// a fleet-wide block (as opposed to its own strikes).
func (s *Supervisor) FleetBlocked() bool { return s.fleetBlocked }
