// Package guard supervises application-supplied schedulers so that a
// buggy or adversarial scheduling block cannot crash, corrupt or hang a
// connection — the userspace analogue of the kernel runtime's
// termination and isolation guarantees (§4 of the paper). The kernel
// model already makes executions *terminate* (the VM step budget) and
// makes individual mistakes *harmless* (graceful action application);
// this package closes the remaining gaps:
//
//   - a scheduler implemented as native Go (or a back-end bug) can
//     panic — the Supervisor recovers the panic and discards the
//     execution's actions;
//   - a scheduler can emit forged actions (out-of-range subflow
//     handles, packets not in the claimed queue) by appending to the
//     action queue directly — the connection refuses them as it
//     applies the queue (mptcp.Conn.applyActions is the one validator),
//     and the Supervisor strikes on the count it refused;
//   - a scheduler can simply stall: never PUSH while Q is nonempty and
//     a subflow has congestion-window headroom. With nothing in flight
//     there is no ACK clock left to re-trigger scheduling, so the
//     connection would hang forever. The Supervisor detects the
//     condition, keeps the connection's scheduler pump alive through a
//     watchdog, and counts strikes.
//
// Repeated strikes quarantine the user program: the connection degrades
// to a trusted fallback (native MinRTT by default) and, after an
// exponentially backed-off probation delay, the user scheduler is put
// on trial again; enough clean trial executions re-promote it. Every
// transition emits obs events and metrics, so progmp-trace shows
// exactly when and why a connection degraded.
package guard

import (
	"fmt"
	"time"

	"progmp/internal/mptcp/sched"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// Scheduler is the execution interface the Supervisor wraps and
// implements (structurally identical to mptcp.Scheduler).
type Scheduler interface {
	Exec(env *runtime.Env)
}

// State is the supervisor's position in the degradation state machine.
type State int32

// The supervision states: active → quarantined → probation → active.
const (
	// StateActive runs the user scheduler under full supervision.
	StateActive State = iota
	// StateQuarantined runs the fallback scheduler; the user program is
	// suspended until the probation timer fires.
	StateQuarantined
	// StateProbation runs the user scheduler on trial: one strike
	// re-quarantines it with doubled backoff, trialExecs clean
	// executions (no refusal, and an action or no work to do)
	// re-promote it to StateActive.
	StateProbation
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateQuarantined:
		return "quarantined"
	case StateProbation:
		return "probation"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// The shipped supervision policy.
const (
	// maxStrikes strikes quarantine the user scheduler.
	maxStrikes = 3
	// stallExecs consecutive zero-action executions with work available
	// count as one stall strike. Generous so intentionally
	// non-work-conserving schedulers (rate limiting, opportunistic
	// waiting) do not strike spuriously: any emitted action resets the
	// run.
	stallExecs = 32
	// stallTimeout is the watchdog delay: when an execution ends with
	// zero actions despite available work, the supervisor re-triggers
	// scheduling after this long so the stall is observable even with
	// no ACK clock left.
	stallTimeout = 50 * time.Millisecond
	// probationAfter is the first quarantine duration; it doubles on
	// every re-quarantine up to maxBackoff.
	probationAfter = 500 * time.Millisecond
	maxBackoff     = 30 * time.Second
	// trialExecs clean probation executions re-promote the user
	// scheduler. An execution is clean when the connection refused none
	// of its actions and it either acted or had no work to do: one that
	// leaves available work undone proves nothing.
	trialExecs = 8
)

// Config wires a Supervisor to its connection. The zero value is
// usable: supervision without the stall watchdog or probation timer (a
// quarantined scheduler then stays quarantined). The policy itself is
// the constants above.
type Config struct {
	// Now is the virtual clock used to timestamp events (nil: events
	// carry time 0).
	Now func() time.Duration
	// After schedules fn on the driving event loop. Required for the
	// stall watchdog and the probation timer; nil disables both.
	After func(d time.Duration, fn func())
	// Wake triggers a scheduling pass on the supervised connection
	// (mptcp.Conn.Kick). Required for the stall watchdog.
	Wake func()
}

// Supervisor wraps a scheduler with panic recovery, strikes on the
// actions the connection refused, stall detection and graceful
// degradation. It implements the same Exec interface as the scheduler
// it wraps, so it installs on a connection like any scheduler, and the
// connection settles each execution through its Applied method once
// the actions are applied. A Supervisor belongs to exactly one
// connection: it keeps per-connection strike state, and the simulation
// model is single-threaded per engine.
type Supervisor struct {
	inner Scheduler
	cfg   Config
	// fallback runs while the user scheduler is quarantined: native
	// MinRTT, or the program a hot-swap replaced (Swap).
	fallback Scheduler

	state       State
	strikes     int
	stallRun    int // consecutive zero-action executions with work available
	backoff     time.Duration
	trialClean  int
	watchdogSet bool
	// probationGen stamps each armed probation timer. Swap, restore and
	// every quarantine bump it, so a timer armed before one of them
	// fires into a stale stamp and is ignored.
	probationGen uint64

	// Fleet enrollment (nil/"" when the supervisor stands alone). The
	// fleet is notified on every quarantine and may force-block this
	// supervisor when the same program misbehaves on enough connections.
	fleet        *Fleet
	fleetProgram string
	fleetBlocked bool
	// blockSavedFallback holds the per-connection fallback while a fleet
	// block forces native MinRTT; FleetLift restores it.
	blockSavedFallback Scheduler

	// Cumulative counts (also mirrored as metrics when instrumented).
	Panics      int64
	Violations  int64
	Stalls      int64
	Quarantines int64
	Restores    int64

	// Observability (nil-safe when uninstrumented).
	tracer       *obs.Tracer
	connID       int32
	mPanics      *obs.Counter
	mViolations  *obs.Counter
	mStalls      *obs.Counter
	mQuarantines *obs.Counter
	mRestores    *obs.Counter
	gState       *obs.Gauge
}

// New wraps inner in a supervisor.
func New(inner Scheduler, cfg Config) *Supervisor {
	return &Supervisor{inner: inner, cfg: cfg, fallback: sched.MinRTT{}, backoff: probationAfter}
}

// Instrument attaches the supervisor to a tracer (labelling events with
// connID, normally mptcp.Conn.TraceConnID) and a metrics registry.
// Either may be nil. Call before traffic starts.
func (s *Supervisor) Instrument(t *obs.Tracer, connID int32, reg *obs.Registry) {
	s.tracer = t
	s.connID = connID
	if reg != nil {
		s.mPanics = reg.Counter("guard.panics")
		s.mViolations = reg.Counter("guard.violations")
		s.mStalls = reg.Counter("guard.stalls")
		s.mQuarantines = reg.Counter("guard.quarantines")
		s.mRestores = reg.Counter("guard.restores")
		s.gState = reg.Gauge("guard.state")
	}
}

// State returns the current supervision state.
func (s *Supervisor) State() State { return s.state }

// Strikes returns the strike count accumulated toward the next
// quarantine.
func (s *Supervisor) Strikes() int { return s.strikes }

// Inner returns the supervised scheduler.
func (s *Supervisor) Inner() Scheduler { return s.inner }

// Swap retargets the supervisor at a new user scheduler (control-plane
// hot-swap). When fallback is non-nil it replaces the quarantine
// fallback — the hot-swap path passes the previously supervised
// program here, so a misbehaving swap degrades back to the scheduler
// that was running before the swap rather than to native MinRTT. The
// supervision state machine restarts clean: active state, zero
// strikes, first-quarantine backoff.
func (s *Supervisor) Swap(newInner, fallback Scheduler) {
	s.inner = newInner
	// A swap retargets the supervisor at a different program, so any
	// fleet block held against the old program no longer applies here
	// (the control plane refuses swaps of blocked programs up front;
	// reaching this point means the target passed or was forced).
	// Re-enroll with the fleet after swapping.
	s.fleetBlocked = false
	s.blockSavedFallback = nil
	if fallback != nil {
		s.fallback = fallback
	}
	s.state = StateActive
	s.strikes = 0
	s.stallRun = 0
	s.trialClean = 0
	s.backoff = probationAfter
	s.probationGen++
	s.gState.Set(int64(StateActive))
}

// Exec runs one supervised scheduler execution: the user scheduler
// under panic recovery, or the fallback while quarantined. A panic
// discards the execution's actions and strikes; if the strike
// quarantines, the fallback serves the same environment. Everything
// else about the execution is settled by Applied, once the connection
// has judged its actions.
func (s *Supervisor) Exec(env *runtime.Env) {
	if s.state == StateQuarantined {
		run(s.fallback, env) // its behaviour never counts against the user program
		return
	}
	if run(s.inner, env) {
		s.Panics++
		s.mPanics.Add(1)
		s.event(obs.EvGuardPanic, 0)
		s.strike(env)
	}
}

// Applied settles an execution after the connection applied it:
// refused is how many of its actions the connection refused
// (mptcp.Conn.applyActions is the one judge of actions). Refusals are
// bad-action strikes, a clean execution counts toward probation, and
// an execution whose every action was refused counts as one without
// actions: with work available it is idle, which extends the stall run
// and does not count toward probation. It reports whether this execution
// quarantined the user scheduler: the connection then runs another
// iteration of the same scheduling pass, which the fallback serves.
func (s *Supervisor) Applied(env *runtime.Env, refused int) (again bool) {
	if s.state == StateQuarantined {
		return false // the fallback served the execution
	}
	idle := len(env.Actions) <= refused && env.WorkAvailable()
	if refused > 0 {
		s.Violations += int64(refused)
		s.mViolations.Add(int64(refused))
		s.event(obs.EvGuardBadAction, int64(refused))
		s.strike(nil)
	} else if s.state == StateProbation && !idle {
		s.trialClean++
		if s.trialClean >= trialExecs {
			s.restore()
		}
	}
	if s.state == StateQuarantined {
		return true
	}
	// Stall detection: no unrefused action while work is available
	// extends the run, arming the watchdog so the next observation
	// happens even without an ACK clock; anything else resets it.
	if !idle {
		s.stallRun = 0
		return false
	}
	s.stallRun++
	if s.stallRun >= stallExecs {
		s.stallRun = 0
		s.Stalls++
		s.mStalls.Add(1)
		s.event(obs.EvGuardStall, stallExecs)
		s.strike(nil)
		if s.state == StateQuarantined {
			return true
		}
		// Not yet quarantined: keep the pump alive so the next stall
		// run is observed even with no transport event left to trigger
		// the scheduler.
	}
	s.armWatchdog()
	return false
}

// run executes sched and recovers a panic, discarding the execution's
// actions; it reports whether sched panicked.
func run(sched Scheduler, env *runtime.Env) (panicked bool) {
	before := len(env.Actions)
	defer func() {
		if recover() != nil {
			env.Actions = env.Actions[:before]
			panicked = true
		}
	}()
	sched.Exec(env)
	return false
}

// armWatchdog schedules a wake so the stalled connection is re-examined
// even when no transport event would trigger the scheduler again.
func (s *Supervisor) armWatchdog() {
	if s.watchdogSet || s.cfg.After == nil || s.cfg.Wake == nil {
		return
	}
	s.watchdogSet = true
	s.cfg.After(stallTimeout, func() {
		s.watchdogSet = false
		s.cfg.Wake()
	})
}

// strike records one strike and quarantines the user scheduler once
// maxStrikes accumulate. During probation a single strike
// re-quarantines immediately. A quarantine hands env, when not nil, to
// the fallback: the panic path serves the execution that struck with
// it, while Applied passes nil because the connection has already
// applied that execution.
func (s *Supervisor) strike(env *runtime.Env) {
	s.strikes++
	if s.state == StateProbation || s.strikes >= maxStrikes {
		s.quarantine(env)
	}
}

// quarantine suspends the user scheduler, degrades to the fallback for
// the current backoff, and schedules the probation trial.
func (s *Supervisor) quarantine(env *runtime.Env) {
	s.state = StateQuarantined
	s.strikes = 0
	s.stallRun = 0
	s.trialClean = 0
	s.Quarantines++
	s.mQuarantines.Add(1)
	s.gState.Set(int64(StateQuarantined))
	backoff := s.backoff
	s.eventSite(obs.EvGuardQuarantine, backoff.Microseconds(), admissionWarnings(s.inner))
	s.backoff = min(2*s.backoff, maxBackoff)
	s.probationGen++
	if s.cfg.After != nil {
		gen := s.probationGen
		s.cfg.After(backoff, func() { s.beginProbation(gen) })
	}
	if s.fleet != nil {
		// May escalate to a fleet block, which re-enters FleetBlock on
		// this and sibling supervisors.
		s.fleet.noteQuarantine(s.fleetProgram, s)
	}
	if env != nil {
		run(s.fallback, env)
	}
}

// beginProbation puts the user scheduler on trial after the quarantine
// backoff elapses; gen is the probationGen the timer was armed with,
// and a timer armed before the latest Swap, restore or quarantine is
// ignored. A fleet-blocked supervisor stays quarantined: only
// FleetLift (the fleet's clean-window timer) re-arms probation.
func (s *Supervisor) beginProbation(gen uint64) {
	if gen != s.probationGen || s.state != StateQuarantined || s.fleetBlocked {
		return
	}
	s.state = StateProbation
	s.trialClean = 0
	s.gState.Set(int64(StateProbation))
	s.event(obs.EvGuardProbe, trialExecs)
	if s.cfg.Wake != nil {
		s.cfg.Wake()
	}
}

// restore re-promotes the user scheduler after a clean trial. The
// backoff is deliberately not reset: a scheduler that keeps flapping
// between probation and quarantine earns ever longer exile.
func (s *Supervisor) restore() {
	s.state = StateActive
	s.strikes = 0
	s.trialClean = 0
	s.probationGen++
	s.Restores++
	s.mRestores.Add(1)
	s.gState.Set(int64(StateActive))
	s.event(obs.EvGuardRestore, s.Quarantines)
}

// event records one supervision event through the attached tracer.
func (s *Supervisor) event(kind obs.EventKind, aux int64) {
	s.eventSite(kind, aux, 0)
}

// eventSite is event with the Site field set: supervision events carry
// no program counter, so quarantine reuses Site for the static
// analyzer's warning count at admission (see AdmissionReporter).
func (s *Supervisor) eventSite(kind obs.EventKind, aux int64, site int32) {
	if s.tracer == nil {
		return
	}
	var at time.Duration
	if s.cfg.Now != nil {
		at = s.cfg.Now()
	}
	s.tracer.Record(obs.Event{At: at, Kind: kind, Conn: s.connID, Seq: -1, Sbf: -1, Aux: aux, Site: site})
}

// AdmissionReporter is optionally implemented by supervised schedulers
// that passed through the static-analysis admission gate (core.Load
// does). When the inner scheduler reports warnings, quarantine events
// carry the count in Site: a scheduler admitted with findings and
// later quarantined is the analyzer's "told you so" signal, and
// progmp-trace surfaces it.
type AdmissionReporter interface {
	AdmissionWarnings() int
}

// admissionWarnings extracts the analyzer warning count recorded at
// admission, 0 when the scheduler does not expose one.
func admissionWarnings(inner Scheduler) int32 {
	if r, ok := inner.(AdmissionReporter); ok {
		n := r.AdmissionWarnings()
		if n > 0 {
			return int32(n)
		}
	}
	return 0
}
