package mptcp

import (
	"testing"
	"time"

	"progmp/internal/core"
	"progmp/internal/netsim"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
)

// kickingScheduler starts another connection's scheduling pass from
// inside its own execution, before the program runs, as a guard fleet's
// wake-up does from inside a quarantine.
type kickingScheduler struct {
	inner Scheduler
	other *Conn
}

func (k *kickingScheduler) Exec(env *runtime.Env) {
	k.other.Kick()
	k.inner.Exec(env)
}

// TestSharedArenaNestedPass: two connections that share an ArenaPool
// transfer exactly as they do with an arena each, although every
// execution of the first runs a pass of the second inside it. The
// nested pass borrows a second arena, so the snapshot the outer
// execution runs on is still its own.
func TestSharedArenaNestedPass(t *testing.T) {
	run := func(pool *ArenaPool) (digest uint64, execs int64) {
		eng := netsim.NewEngine(3)
		var conns [2]*Conn
		for i := range conns {
			c, err := Dial(eng, Config{}, twoPaths(eng)...)
			if err != nil {
				t.Fatal(err)
			}
			if pool != nil {
				c.ShareArena(pool)
			}
			c.Receiver().AddDeliveryHook(func(seq int64, _ int, at time.Duration) {
				digest = (digest ^ uint64(i)<<60 ^ uint64(seq)<<32 ^ uint64(at)) * 1099511628211
			})
			conns[i] = c
		}
		conns[0].SetScheduler(&kickingScheduler{inner: core.MustLoad("busy", busyMinRTT, core.BackendVM), other: conns[1]})
		conns[1].SetScheduler(core.MustLoad("redundant", schedlib.All["redundant"], core.BackendVM))
		for _, c := range conns {
			c.Send(256<<10, 0)
		}
		eng.RunUntil(10 * time.Second)
		for i, c := range conns {
			if !c.AllAcked() {
				t.Fatalf("connection %d not fully acknowledged", i)
			}
		}
		return digest, conns[0].SchedulerExecutions + conns[1].SchedulerExecutions
	}
	want, wantExecs := run(nil)
	pool := &ArenaPool{}
	got, execs := run(pool)
	if got != want || execs != wantExecs {
		t.Errorf("sharing an arena pool changed the transfer: digest %#x, %d executions; own arenas %#x, %d", got, execs, want, wantExecs)
	}
	if len(pool.free) != 2 {
		t.Errorf("the pool holds %d arenas after the run, want 2: one per pass running at once", len(pool.free))
	}
}
