package guard

import (
	"testing"
	"time"

	"progmp/internal/netsim"
	"progmp/internal/obs"
	"progmp/internal/runtime"
)

// The shipped-policy tests pin the constants every supervised
// connection runs with. They name the values literally, so changing a
// constant fails them.

// policyRig is one supervisor clocked by a virtual engine. Its Wake
// stands in for the connection's Kick: it records when it fired and,
// when execOnWake is set, runs one settled execution.
type policyRig struct {
	eng        *netsim.Engine
	sup        *Supervisor
	inner      *switchable
	tracer     *obs.Tracer
	env        func() *runtime.Env
	wakes      []time.Duration
	execOnWake bool
}

func newPolicyRig(env func() *runtime.Env) *policyRig {
	r := &policyRig{
		eng:    netsim.NewEngine(1),
		inner:  &switchable{},
		tracer: obs.NewTracer(1024),
		env:    env,
	}
	r.sup = New(r.inner, Config{
		Now:   r.eng.Now,
		After: func(d time.Duration, fn func()) { r.eng.After(d, fn) },
		Wake: func() {
			r.wakes = append(r.wakes, r.eng.Now())
			if r.execOnWake {
				r.exec()
			}
		},
	})
	r.sup.Instrument(r.tracer, 0, nil)
	return r
}

// exec runs and settles one execution, as Conn.schedule does.
func (r *policyRig) exec() {
	env := r.env()
	r.sup.Exec(env)
	r.sup.Applied(env, 0)
}

func (r *policyRig) quarantine() {
	r.inner.bad = true
	for r.sup.State() != StateQuarantined {
		r.exec()
	}
}

// events returns tr's events of one kind, in order.
func events(tr *obs.Tracer, kind obs.EventKind) []obs.Event {
	var out []obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestShippedSupervisorPolicy: three strikes quarantine; the
// quarantine lasts 0.5 s and doubles on every re-quarantine up to
// 30 s; eight clean probation executions restore; 32 empty executions
// with work available are one stall strike, and a stalled connection
// is re-kicked every 50 ms.
func TestShippedSupervisorPolicy(t *testing.T) {
	cases := []struct {
		name string
		env  func() *runtime.Env
		run  func(t *testing.T, r *policyRig)
	}{
		{"quarantines at the 3rd strike", freshEnv, func(t *testing.T, r *policyRig) {
			r.inner.bad = true
			for i := 1; i <= 3; i++ {
				r.exec()
				want := StateActive
				if i == 3 {
					want = StateQuarantined
				}
				if got := r.sup.State(); got != want {
					t.Fatalf("after strike %d: state %v, want %v", i, got, want)
				}
			}
			if r.sup.Quarantines != 1 {
				t.Errorf("Quarantines = %d, want 1", r.sup.Quarantines)
			}
		}},
		{"quarantine windows double from 0.5 s to a 30 s cap", freshEnv, func(t *testing.T, r *policyRig) {
			// Each probation's wake runs the still-broken program,
			// which re-quarantines at once.
			r.execOnWake = true
			r.quarantine()
			r.eng.RunUntil(3 * time.Minute)
			want := []time.Duration{
				500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second,
				8 * time.Second, 16 * time.Second, 30 * time.Second, 30 * time.Second, 30 * time.Second,
			}
			qs := events(r.tracer, obs.EvGuardQuarantine)
			if len(qs) <= len(want) {
				t.Fatalf("%d quarantines in 3 min, want more than %d", len(qs), len(want))
			}
			for i, w := range want {
				if got := time.Duration(qs[i].Aux) * time.Microsecond; got != w {
					t.Errorf("quarantine %d: Aux window %v, want %v", i+1, got, w)
				}
				if gap := qs[i+1].At - qs[i].At; gap != w {
					t.Errorf("quarantine %d lasted %v, want %v", i+1, gap, w)
				}
			}
		}},
		{"restores after 8 clean executions", freshEnv, func(t *testing.T, r *policyRig) {
			r.quarantine()
			r.inner.bad = false
			r.eng.RunUntil(499 * time.Millisecond)
			if r.sup.State() != StateQuarantined {
				t.Fatalf("state %v before 500 ms, want quarantined", r.sup.State())
			}
			r.eng.RunUntil(500 * time.Millisecond)
			if r.sup.State() != StateProbation || len(r.wakes) != 1 {
				t.Fatalf("at 500 ms: state %v after %d wakes, want probation after 1", r.sup.State(), len(r.wakes))
			}
			for i := 1; i <= 8; i++ {
				r.exec()
				want := StateProbation
				if i == 8 {
					want = StateActive
				}
				if got := r.sup.State(); got != want {
					t.Fatalf("after clean execution %d: state %v, want %v", i, got, want)
				}
			}
			if r.sup.Restores != 1 {
				t.Errorf("Restores = %d, want 1", r.sup.Restores)
			}
		}},
		{"idle probation executions do not count toward the 8", syntheticEnv, func(t *testing.T, r *policyRig) {
			r.quarantine()
			r.inner.bad = false
			r.eng.RunUntil(500 * time.Millisecond)
			if r.sup.State() != StateProbation {
				t.Fatalf("at 500 ms: state %v, want probation", r.sup.State())
			}
			// Work is available and the program does nothing: eight
			// such executions are no trial.
			for i := 1; i <= 8; i++ {
				r.exec()
			}
			if got := r.sup.State(); got != StateProbation {
				t.Fatalf("after 8 idle executions: state %v, want probation", got)
			}
			r.inner.push = true
			for i := 1; i <= 8; i++ {
				r.exec()
				want := StateProbation
				if i == 8 {
					want = StateActive
				}
				if got := r.sup.State(); got != want {
					t.Fatalf("after pushing execution %d: state %v, want %v", i, got, want)
				}
			}
		}},
		{"a stall strike after 32 empty executions", syntheticEnv, func(t *testing.T, r *policyRig) {
			for i := 1; i <= 32; i++ {
				r.exec()
				if want := int64(i / 32); r.sup.Stalls != want {
					t.Fatalf("after empty execution %d: %d stall strikes, want %d", i, r.sup.Stalls, want)
				}
			}
			if st := events(r.tracer, obs.EvGuardStall); len(st) != 1 || st[0].Aux != 32 {
				t.Errorf("stall events %+v, want one with Aux 32", st)
			}
			if r.sup.Strikes() != 1 {
				t.Errorf("Strikes = %d, want 1", r.sup.Strikes())
			}
		}},
		{"a stalled connection is re-kicked every 50 ms", syntheticEnv, func(t *testing.T, r *policyRig) {
			r.execOnWake = true
			r.exec()
			r.eng.RunUntil(time.Second)
			if len(r.wakes) != 20 {
				t.Fatalf("%d wakes in 1 s, want 20", len(r.wakes))
			}
			for i, at := range r.wakes {
				if want := time.Duration(i+1) * 50 * time.Millisecond; at != want {
					t.Fatalf("wake %d at %v, want %v", i+1, at, want)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newPolicyRig(tc.env))
		})
	}
}

// TestShippedFleetPolicy: a fleet block (at the 3rd distinct
// connection, TestFleetBlockAtThreshold) lasts a clean window of 10 s
// that doubles on every re-block up to 10 min.
func TestShippedFleetPolicy(t *testing.T) {
	r := newFleetRig(4)
	want := []time.Duration{
		10 * time.Second, 20 * time.Second, 40 * time.Second, 80 * time.Second,
		160 * time.Second, 320 * time.Second, 10 * time.Minute, 10 * time.Minute,
	}
	for i, w := range want {
		// After a lift every supervisor is on probation, where one
		// strike re-quarantines.
		for j := 0; j < 3; j++ {
			r.quarantineSup(j)
		}
		at := r.eng.Now()
		if !r.fleet.Blocked(rigProgram) {
			t.Fatalf("block %d: not blocked", i+1)
		}
		r.eng.RunUntil(at + w - time.Millisecond)
		if !r.fleet.Blocked(rigProgram) {
			t.Fatalf("block %d lifted before %v", i+1, w)
		}
		r.eng.RunUntil(at + w)
		if r.fleet.Blocked(rigProgram) {
			t.Fatalf("block %d not lifted after %v", i+1, w)
		}
	}
}
