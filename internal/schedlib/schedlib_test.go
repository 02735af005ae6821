package schedlib

import (
	"slices"
	"strings"
	"testing"

	"progmp/internal/core"
	"progmp/internal/envtest"
	"progmp/internal/runtime"
)

// TestCorpusLoadsOnAllBackends compiles every scheduler of the corpus
// with all three execution back-ends.
func TestCorpusLoadsOnAllBackends(t *testing.T) {
	for name, src := range All {
		for _, backend := range []core.Backend{core.BackendInterpreter, core.BackendCompiled, core.BackendVM} {
			if _, err := core.Load(name, src, backend); err != nil {
				t.Errorf("%s on %s: %v", name, backend, err)
			}
		}
	}
}

// TestCorpusBackendAgreement checks that every scheduler behaves
// identically across back-ends on a set of canonical environments.
func TestCorpusBackendAgreement(t *testing.T) {
	builds := []func() *runtime.Env{
		func() *runtime.Env { return envtest.TwoSubflowEnv(0) },
		func() *runtime.Env { return envtest.TwoSubflowEnv(3) },
		func() *runtime.Env {
			return envtest.EnvSpec{
				Subflows: []envtest.SbfSpec{
					{ID: 0, RTT: 10000, Cwnd: 4, InFlight: 4}, // exhausted
					{ID: 1, RTT: 40000, Cwnd: 8, InFlight: 2, Backup: true},
				},
				Q:  []envtest.PktSpec{{Seq: 10}, {Seq: 11}},
				QU: []envtest.PktSpec{{Seq: 8, SentOn: []int{0}}, {Seq: 9, SentOn: []int{1}}},
			}.Build()
		},
		func() *runtime.Env {
			return envtest.EnvSpec{
				Subflows: []envtest.SbfSpec{
					{ID: 0, RTT: 12000, Cwnd: 10, InFlight: 1},
					{ID: 1, RTT: 45000, Cwnd: 10, InFlight: 0, Backup: true},
					{ID: 2, RTT: 25000, Cwnd: 10, InFlight: 3, Lossy: true},
				},
				Q:  []envtest.PktSpec{{Seq: 0, Prop: 1}, {Seq: 1, Prop: 3}, {Seq: 2, Prop: 2}},
				QU: []envtest.PktSpec{{Seq: 100, SentOn: []int{0, 1}}},
				RQ: []envtest.PktSpec{{Seq: 50, SentOn: []int{2}}},
			}.Build()
		},
	}
	regs := [runtime.NumRegisters]int64{4 << 20, 1, 20, 1, 0, 15, 0, 1}
	for name, src := range All {
		it := core.MustLoad(name, src, core.BackendInterpreter)
		cc := core.MustLoad(name, src, core.BackendCompiled)
		bc := core.MustLoad(name, src, core.BackendVM)
		for i, build := range builds {
			envI, envC, envV := build(), build(), build()
			*envI.Regs, *envC.Regs, *envV.Regs = regs, regs, regs
			it.Exec(envI)
			cc.Exec(envC)
			bc.Exec(envV)
			if !slices.Equal(envI.Actions, envC.Actions) || !slices.Equal(envI.Actions, envV.Actions) {
				t.Errorf("%s env %d: backend divergence\ninterp:   %v\ncompiled: %v\nvm:       %v",
					name, i, envI.Actions, envC.Actions, envV.Actions)
			}
			if *envI.Regs != *envC.Regs || *envI.Regs != *envV.Regs {
				t.Errorf("%s env %d: register divergence", name, i)
			}
		}
	}
}

func exec(t *testing.T, src string, env *runtime.Env) {
	t.Helper()
	core.MustLoad("t", src, core.BackendCompiled).Exec(env)
}

func pushes(env *runtime.Env) []runtime.Action {
	var out []runtime.Action
	for _, a := range env.Actions {
		if a.Kind == runtime.ActionPush {
			out = append(out, a)
		}
	}
	return out
}

func TestMinRTTIgnoresBackupWhenNonBackupExists(t *testing.T) {
	// Non-backup subflow is cwnd-exhausted; the default scheduler must
	// NOT fall over to the backup (backup is used only when no
	// non-backup subflow exists at all, §3.4).
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 2, InFlight: 2},
			{ID: 1, RTT: 40000, Cwnd: 10, Backup: true},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, MinRTT, env)
	if len(pushes(env)) != 0 {
		t.Errorf("default scheduler used backup subflow while a non-backup exists: %v", env.Actions)
	}
}

func TestMinRTTUsesBackupWhenAlone(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{{ID: 0, RTT: 40000, Cwnd: 10, Backup: true}},
		Q:        []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, MinRTT, env)
	if len(pushes(env)) != 1 {
		t.Errorf("default scheduler must use a lone backup subflow")
	}
}

func TestOpportunisticRedundantSendsFreshOnAllAvailable(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10},
			{ID: 1, RTT: 40000, Cwnd: 10},
			{ID: 2, RTT: 20000, Cwnd: 2, InFlight: 2}, // exhausted
		},
		Q: []envtest.PktSpec{{Seq: 0}, {Seq: 1}},
	}.Build()
	exec(t, OpportunisticRedundant, env)
	ps := pushes(env)
	if len(ps) != 2 {
		t.Fatalf("got %d pushes, want 2 (both available subflows)", len(ps))
	}
	if ps[0].Packet != ps[1].Packet {
		t.Errorf("both pushes must carry the same fresh packet")
	}
	// The packet must also be dropped from Q (it was pushed via TOP).
	var dropped bool
	for _, a := range env.Actions {
		if a.Kind == runtime.ActionDrop && a.Packet == ps[0].Packet {
			dropped = true
		}
	}
	if !dropped {
		t.Errorf("fresh packet not removed from Q after redundant push: %v", env.Actions)
	}
}

func TestRedundantIfNoQFavorsFreshPackets(t *testing.T) {
	// With data in Q, exactly one (non-redundant) push must happen.
	env := envtest.TwoSubflowEnv(2)
	exec(t, RedundantIfNoQ, env)
	if n := len(pushes(env)); n != 1 {
		t.Errorf("with Q non-empty, RedundantIfNoQ must send exactly one fresh packet, got %d", n)
	}
	// With Q empty, it must retransmit QU packets on subflows that have
	// not carried them.
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10},
			{ID: 1, RTT: 40000, Cwnd: 10},
		},
		QU: []envtest.PktSpec{{Seq: 5, SentOn: []int{0}}},
	}.Build()
	exec(t, RedundantIfNoQ, env2)
	ps := pushes(env2)
	if len(ps) != 1 {
		t.Fatalf("got %d pushes, want 1 redundant copy", len(ps))
	}
	if ps[0].Subflow != env2.SubflowViews[1].Handle {
		t.Errorf("redundant copy must go to the subflow that has not sent the packet")
	}
}

func TestCompensatingRetransmitsAtFlowEnd(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10},
			{ID: 1, RTT: 40000, Cwnd: 10},
		},
		QU: []envtest.PktSpec{
			{Seq: 32, SentOn: []int{1}},
			{Seq: 33, SentOn: []int{0}},
		},
	}.Build()
	env.Regs[RegFlowEnd] = 1
	exec(t, Compensating, env)
	ps := pushes(env)
	if len(ps) != 2 {
		t.Fatalf("got %d pushes, want 2 (one compensation per subflow)", len(ps))
	}
	// Without the flow-end signal nothing may happen.
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{{ID: 0, RTT: 10000, Cwnd: 10}, {ID: 1, RTT: 40000, Cwnd: 10}},
		QU:       []envtest.PktSpec{{Seq: 32, SentOn: []int{1}}},
	}.Build()
	exec(t, Compensating, env2)
	if len(pushes(env2)) != 0 {
		t.Errorf("compensation must only trigger on the end-of-flow signal")
	}
}

func TestSelectiveCompensationRespectsRatioThreshold(t *testing.T) {
	build := func(slowRTT int64) *runtime.Env {
		env := envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{
				{ID: 0, RTT: 10000, Cwnd: 10},
				{ID: 1, RTT: slowRTT, Cwnd: 10},
			},
			QU: []envtest.PktSpec{{Seq: 32, SentOn: []int{1}}},
		}.Build()
		env.Regs[RegFlowEnd] = 1
		env.Regs[RegCompRatio] = 20 // ratio 2.0
		return env
	}
	low := build(15000) // ratio 1.5 < 2
	exec(t, SelectiveCompensation, low)
	if len(pushes(low)) != 0 {
		t.Errorf("ratio 1.5 must not compensate")
	}
	high := build(40000) // ratio 4 > 2
	exec(t, SelectiveCompensation, high)
	if len(pushes(high)) == 0 {
		t.Errorf("ratio 4 must compensate")
	}
}

func TestTAPPrefersWiFiAndBoundsLTE(t *testing.T) {
	// Preferred subflow available → use it, never LTE.
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10, Throughput: 3 << 20},
			{ID: 1, RTT: 40000, Cwnd: 10, Throughput: 8 << 20, Backup: true},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	env.Regs[RegTarget] = 4 << 20
	exec(t, TAP, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Subflow != env.SubflowViews[0].Handle {
		t.Fatalf("TAP must prefer the non-backup subflow: %v", env.Actions)
	}
	// Preferred exhausted and its throughput below target → LTE may
	// carry the leftover.
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 4, InFlight: 4, Throughput: 1 << 20},
			{ID: 1, RTT: 40000, Cwnd: 10, Throughput: 8 << 20, Backup: true},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	env2.Regs[RegTarget] = 4 << 20
	exec(t, TAP, env2)
	ps2 := pushes(env2)
	if len(ps2) != 1 || ps2[0].Subflow != env2.SubflowViews[1].Handle {
		t.Fatalf("TAP must spill to LTE when the preferred path cannot sustain the target: %v", env2.Actions)
	}
	// Preferred exhausted but throughput target met → do not use LTE.
	env3 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 4, InFlight: 4, Throughput: 5 << 20},
			{ID: 1, RTT: 40000, Cwnd: 10, Throughput: 8 << 20, Backup: true},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	env3.Regs[RegTarget] = 4 << 20
	exec(t, TAP, env3)
	if len(pushes(env3)) != 0 {
		t.Errorf("TAP must not use LTE when WiFi meets the target: %v", env3.Actions)
	}
}

func TestTargetRTTFallsBackWhenPreferredTooSlow(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 90000, Cwnd: 10},               // WiFi with RTT spike
			{ID: 1, RTT: 40000, Cwnd: 10, Backup: true}, // LTE
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	env.Regs[RegTarget] = 50000 // 50 ms tolerable
	exec(t, TargetRTT, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Subflow != env.SubflowViews[1].Handle {
		t.Fatalf("TargetRTT must use LTE when WiFi exceeds the RTT bound: %v", env.Actions)
	}
	env.Regs[RegTarget] = 100000 // relaxed bound: prefer WiFi again
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 90000, Cwnd: 10},
			{ID: 1, RTT: 40000, Cwnd: 10, Backup: true},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	env2.Regs[RegTarget] = 100000
	exec(t, TargetRTT, env2)
	ps2 := pushes(env2)
	if len(ps2) != 1 || ps2[0].Subflow != env2.SubflowViews[0].Handle {
		t.Fatalf("TargetRTT must prefer WiFi when it meets the bound: %v", env2.Actions)
	}
}

func TestHandoverAwareRetransmitsFromDyingSubflow(t *testing.T) {
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10}, // dying WiFi
			{ID: 1, RTT: 40000, Cwnd: 10}, // fresh LTE
		},
		QU: []envtest.PktSpec{{Seq: 7, SentOn: []int{0}}},
	}.Build()
	env.Regs[RegHandover] = 1
	env.Regs[RegHandoverSbf] = 0
	exec(t, HandoverAware, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Subflow != env.SubflowViews[1].Handle {
		t.Fatalf("handover-aware must retransmit the WiFi packet on LTE: %v", env.Actions)
	}
}

func TestHTTP2AwareContentClasses(t *testing.T) {
	build := func(prop int64) *runtime.Env {
		return envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{
				{ID: 0, RTT: 10000, Cwnd: 10},
				{ID: 1, RTT: 50000, Cwnd: 10, Backup: true},
			},
			Q: []envtest.PktSpec{{Seq: 0, Prop: prop}},
		}.Build()
	}
	// Dependency-critical: only the low-RTT subflow, packet leaves Q.
	env := build(PropDependency)
	exec(t, HTTP2Aware, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Subflow != env.SubflowViews[0].Handle {
		t.Fatalf("dependency packets must avoid the high-RTT subflow: %v", env.Actions)
	}
	// Required content: default minRTT → WiFi.
	env2 := build(PropRequired)
	exec(t, HTTP2Aware, env2)
	if ps := pushes(env2); len(ps) != 1 || ps[0].Subflow != env2.SubflowViews[0].Handle {
		t.Fatalf("required content must use minRTT: %v", env2.Actions)
	}
	// Deferrable content: preference-aware → WiFi only; if WiFi gone,
	// wait rather than using LTE.
	env3 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 2, InFlight: 2}, // WiFi exhausted
			{ID: 1, RTT: 50000, Cwnd: 10, Backup: true},
		},
		Q: []envtest.PktSpec{{Seq: 0, Prop: PropDeferrable}},
	}.Build()
	exec(t, HTTP2Aware, env3)
	if len(pushes(env3)) != 0 {
		t.Errorf("deferrable content must not spill to the metered subflow: %v", env3.Actions)
	}
}

func TestProbingPushesOnIdleSubflows(t *testing.T) {
	sched := core.MustLoad("probe", ProbingMinRTT, core.BackendCompiled)
	var regs [runtime.NumRegisters]int64
	probed := false
	for i := 0; i < 16; i++ {
		env := envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{
				{ID: 0, RTT: 10000, Cwnd: 10, InFlight: 2},
				{ID: 1, RTT: 40000, Cwnd: 10, InFlight: 0}, // idle
			},
			QU: []envtest.PktSpec{{Seq: 3, SentOn: []int{0}}},
		}.Build()
		*env.Regs = regs
		sched.Exec(env)
		regs = *env.Regs
		for _, a := range pushes(env) {
			if a.Subflow == env.SubflowViews[1].Handle {
				probed = true
			}
		}
	}
	if !probed {
		t.Errorf("probing scheduler never probed the idle subflow in 16 executions")
	}
}

// TestSpecificationSizes documents the code-size claim of §2.2: the
// plain round-robin scheduler needs 301 lines of C in the kernel, while
// the corpus specifications stay well under 60 lines each.
func TestSpecificationSizes(t *testing.T) {
	for name, src := range All {
		lines := 0
		for _, l := range strings.Split(src, "\n") {
			if strings.TrimSpace(l) != "" {
				lines++
			}
		}
		if lines > 60 {
			t.Errorf("%s has %d non-empty lines; specifications should stay concise", name, lines)
		}
		if lines == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestDeadlineAwareEngagesBackupOnlyUnderPressure(t *testing.T) {
	build := func(deadlineUS int64) *runtime.Env {
		env := envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{
				{ID: 0, RTT: 10000, Cwnd: 2, InFlight: 2, Throughput: 1 << 20}, // pref, exhausted
				{ID: 1, RTT: 40000, Cwnd: 10, Throughput: 8 << 20, Backup: true},
			},
			Q: []envtest.PktSpec{{Seq: 0}, {Seq: 1}, {Seq: 2}, {Seq: 3}},
		}.Build()
		env.Regs[RegTarget] = deadlineUS
		return env
	}
	// Q holds ~4*1460 bytes; preferred throughput 1 MB/s → ~5.6 ms
	// needed. A generous 1 s deadline must not engage the backup.
	relaxed := build(1000000)
	exec(t, DeadlineAware, relaxed)
	if len(pushes(relaxed)) != 0 {
		t.Errorf("deadline 1s: backup engaged needlessly: %v", relaxed.Actions)
	}
	// A 1 ms deadline cannot be met on the preferred path alone.
	tight := build(1000)
	exec(t, DeadlineAware, tight)
	ps := pushes(tight)
	if len(ps) != 1 || ps[0].Subflow != tight.SubflowViews[1].Handle {
		t.Errorf("deadline 1ms: backup must engage: %v", tight.Actions)
	}
}

func TestCwndRelaxTailPushesFlowTail(t *testing.T) {
	build := func(qlen int) *runtime.Env {
		spec := envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{
				{ID: 0, RTT: 10000, Cwnd: 4, InFlight: 4}, // exhausted
				{ID: 1, RTT: 40000, Cwnd: 4, InFlight: 4}, // exhausted
			},
		}
		for i := 0; i < qlen; i++ {
			spec.Q = append(spec.Q, envtest.PktSpec{Seq: int64(i)})
		}
		env := spec.Build()
		env.Regs[RegHandoverSbf] = 3 // R5 = relax for the last 3 packets
		return env
	}
	long := build(10) // not the tail yet: respect cwnd
	exec(t, CwndRelaxTail, long)
	if len(pushes(long)) != 0 {
		t.Errorf("mid-flow push despite exhausted cwnd: %v", long.Actions)
	}
	tail := build(2) // flow tail: relax the constraint, save an RTT
	exec(t, CwndRelaxTail, tail)
	ps := pushes(tail)
	if len(ps) != 1 || ps[0].Subflow != tail.SubflowViews[0].Handle {
		t.Errorf("tail packet not pushed on the fastest subflow: %v", tail.Actions)
	}
}

func TestLastSentUSProperty(t *testing.T) {
	// "whether and when the packet was sent" (§3.1): retransmit only
	// packets whose last transmission is older than R1 µs.
	src := `
VAR stale = QU.FILTER(p => p.LAST_SENT_US > R1).TOP;
IF (stale != NULL) {
    SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(stale);
}`
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{{ID: 0, RTT: 10000, Cwnd: 10}},
		QU: []envtest.PktSpec{
			{Seq: 1, SentOn: []int{0}, AgeUS: 5000, LastSentUS: 5000},
			{Seq: 2, SentOn: []int{0}, AgeUS: 90000, LastSentUS: 90000},
		},
	}.Build()
	env.Regs[RegTarget] = 50000 // stale above 50 ms
	exec(t, src, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Packet != runtime.PacketHandle(10002) {
		t.Fatalf("expected only the 90ms-old packet retransmitted, got %v", env.Actions)
	}
	// Never-sent packets report -1 and must not look stale.
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{{ID: 0, RTT: 10000, Cwnd: 10}},
		Q:        []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, `VAR unsent = Q.FILTER(p => p.LAST_SENT_US == -1).TOP;
IF (unsent != NULL) { SET(R8, 1); }`, env2)
	if env2.Reg(7) != 1 {
		t.Errorf("never-sent packet should report LAST_SENT_US == -1")
	}
}

func TestQAwarePenalizesOccupiedLinks(t *testing.T) {
	// Subflow 0 has the lower RTT but a full transmit queue; with the
	// occupancy term each queued byte counts like a microsecond, so the
	// emptier, slower path wins.
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10, LinkQueued: 64000},
			{ID: 1, RTT: 40000, Cwnd: 10, LinkQueued: 0},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, QAware, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Subflow != env.SubflowViews[1].Handle {
		t.Fatalf("qaware must steer around the occupied link: %v", env.Actions)
	}
	// With empty queues it degrades to minRTT.
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10},
			{ID: 1, RTT: 40000, Cwnd: 10},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, QAware, env2)
	if ps := pushes(env2); len(ps) != 1 || ps[0].Subflow != env2.SubflowViews[0].Handle {
		t.Fatalf("qaware with empty queues must pick minRTT: %v", env2.Actions)
	}
}

func TestJointFlowShunsDegradedDestinations(t *testing.T) {
	// Another connection observed quarantines on the fast path: shun it.
	env := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10, XQuar: 1},
			{ID: 1, RTT: 40000, Cwnd: 10},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, JointFlow, env)
	ps := pushes(env)
	if len(ps) != 1 || ps[0].Subflow != env.SubflowViews[1].Handle {
		t.Fatalf("jointFlow must avoid the quarantined destination: %v", env.Actions)
	}
	// Shared loss events beyond the R1+8 bound shun the path too.
	env2 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10, XLost: 50},
			{ID: 1, RTT: 40000, Cwnd: 10},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, JointFlow, env2)
	if ps := pushes(env2); len(ps) != 1 || ps[0].Subflow != env2.SubflowViews[1].Handle {
		t.Fatalf("jointFlow must avoid the lossy destination: %v", env2.Actions)
	}
	// Every destination degraded → fall back to minRTT over avail
	// rather than starving.
	env3 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10, XQuar: 2},
			{ID: 1, RTT: 40000, Cwnd: 10, XQuar: 1},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, JointFlow, env3)
	if ps := pushes(env3); len(ps) != 1 || ps[0].Subflow != env3.SubflowViews[0].Handle {
		t.Fatalf("jointFlow with no healthy path must fall back to minRTT: %v", env3.Actions)
	}
	// Without a store (all X-properties 0) it behaves like minRTT.
	env4 := envtest.EnvSpec{
		Subflows: []envtest.SbfSpec{
			{ID: 0, RTT: 10000, Cwnd: 10},
			{ID: 1, RTT: 40000, Cwnd: 10},
		},
		Q: []envtest.PktSpec{{Seq: 0}},
	}.Build()
	exec(t, JointFlow, env4)
	if ps := pushes(env4); len(ps) != 1 || ps[0].Subflow != env4.SubflowViews[0].Handle {
		t.Fatalf("jointFlow without shared state must degrade to minRTT: %v", env4.Actions)
	}
}

func TestTLSAwareKeepsRecordsCoherent(t *testing.T) {
	sched := core.MustLoad("tls", TLSAware, core.BackendCompiled)
	var regs [runtime.NumRegisters]int64
	targets := map[int64][]runtime.SubflowHandle{}
	// Three records (ids 11, 12, 13), two packets each, scheduled one
	// packet per execution with evolving RTTs so minRTT alone would
	// split records across subflows.
	sends := []struct {
		prop    int64
		fastRTT int64
	}{
		{11, 10000}, {11, 90000}, // record 11: fast flips mid-record
		{12, 90000}, {12, 10000},
		{13, 10000}, {13, 10000},
	}
	for _, s := range sends {
		env := envtest.EnvSpec{
			Subflows: []envtest.SbfSpec{
				{ID: 0, RTT: s.fastRTT, Cwnd: 10},
				{ID: 1, RTT: 40000, Cwnd: 10},
			},
			Q: []envtest.PktSpec{{Seq: 0, Prop: s.prop}},
		}.Build()
		*env.Regs = regs
		sched.Exec(env)
		regs = *env.Regs
		for _, a := range env.Actions {
			if a.Kind == runtime.ActionPush {
				targets[s.prop] = append(targets[s.prop], a.Subflow)
			}
		}
	}
	for record, sbfs := range targets {
		if len(sbfs) != 2 {
			t.Errorf("record %d: %d pushes, want 2", record, len(sbfs))
			continue
		}
		if sbfs[0] != sbfs[1] {
			t.Errorf("record %d split across subflows %v (coherence violated)", record, sbfs)
		}
	}
	// Distinct records may use distinct subflows (record 12 started
	// while subflow 1 was fastest).
	if targets[11][0] == targets[12][0] {
		t.Logf("note: records 11 and 12 happened to share a subflow")
	}
}
