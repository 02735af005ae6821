// Package sched provides the native Go minRTT scheduler — the analogue
// of the kernel's hand-written C default scheduler. It implements
// exactly the semantics of its schedlib specification, serving as the
// baseline for the overhead evaluation (Fig. 9: "We compare the
// execution times of the C-based default scheduler implementation with
// a semantically equivalent scheduler specified in our programming
// model") and as a differential oracle for the substrate tests. The
// package's tests hold native round-robin and redundant references too.
package sched

import "progmp/internal/runtime"

// available reports the canonical availability condition: not
// TSQ-throttled, not in loss state, congestion window not exhausted.
func available(s *runtime.SubflowView) bool {
	return !s.Bools[runtime.SbfTSQThrottled] &&
		!s.Bools[runtime.SbfLossy] &&
		s.Ints[runtime.SbfCwnd] > s.Ints[runtime.SbfSkbsInFlight]+s.Ints[runtime.SbfQueued]
}

// minRTTOf returns the view with minimal RTT among those passing keep,
// or nil.
func minRTTOf(views []*runtime.SubflowView, keep func(*runtime.SubflowView) bool) *runtime.SubflowView {
	var best *runtime.SubflowView
	for _, v := range views {
		//progmp:ignore hotpath callback literal is checked inline at each call site
		if keep != nil && !keep(v) {
			continue
		}
		if best == nil || v.Ints[runtime.SbfRTT] < best.Ints[runtime.SbfRTT] {
			best = v
		}
	}
	return best
}

// reinject performs the reinjection-first behaviour shared by the
// minRTT-derived schedulers (schedlib.ReinjectPrelude).
func reinject(env *runtime.Env) {
	top := env.ReinjectQ.Top()
	if top == nil {
		return
	}
	best := minRTTOf(env.SubflowViews, func(s *runtime.SubflowView) bool {
		return available(s) && !top.SentOn(s)
	})
	if best == nil {
		return
	}
	env.Pop(runtime.QueueReinject, top)
	env.Push(best, top)
}

// MinRTT is the native default scheduler (semantically equivalent to
// schedlib.MinRTT).
type MinRTT struct{}

// Exec runs one scheduling decision.
//
//progmp:hotpath
//progmp:deterministic
func (MinRTT) Exec(env *runtime.Env) {
	reinject(env)
	if env.SendQ.Empty() {
		return
	}
	anyNonBackup := false
	for _, s := range env.SubflowViews {
		if !s.Bools[runtime.SbfIsBackup] {
			anyNonBackup = true
			break
		}
	}
	var target *runtime.SubflowView
	if anyNonBackup {
		target = minRTTOf(env.SubflowViews, func(s *runtime.SubflowView) bool {
			return available(s) && !s.Bools[runtime.SbfIsBackup]
		})
	} else {
		target = minRTTOf(env.SubflowViews, available)
	}
	if target == nil {
		return
	}
	pkt := env.SendQ.Top()
	env.Pop(runtime.QueueSend, pkt)
	env.Push(target, pkt)
}
