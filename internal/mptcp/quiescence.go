package mptcp

import (
	"fmt"

	"progmp/internal/runtime"
)

// VerifyQuiescence turns on the quiescence check; only tests set it.
// A certified trigger then executes anyway and reports to it: nil when
// the execution was inert and the snapshot's facts were the
// connection's, what went wrong otherwise. It is read without
// synchronization, so set it before any connection runs and clear it
// after the last one stopped.
var VerifyQuiescence func(error)

// facts is the connection's substrate fact word (runtime.Facts) over
// the state buildEnv would snapshot: the three queues and the usable
// subflows. It builds no snapshot. A subflow's SKBS_IN_FLIGHT and
// QUEUED (wireInFlight, queuedSegments) sum to nOut.
//
//progmp:hotpath
//progmp:deterministic
func (c *Conn) facts() runtime.Facts {
	f := runtime.QueueFacts(c.queues[inQ].len() == 0, c.queues[inQU].len() == 0, c.queues[inRQ].len() == 0)
	for _, s := range c.subflows {
		if s.usable() {
			f = f.WithSubflow(runtime.SubflowAtoms(s.tsqThrottled(), s.inRecovery, s.backup, int64(s.cwnd), int64(s.nOut)))
		}
	}
	return f
}

// verifyQuiet runs a certified trigger's execution anyway and reports
// to VerifyQuiescence what it should not have done. It applies
// nothing, restores what the execution wrote, and leaves the execution
// counts alone, so a run with the check on takes the trajectory of a
// run without it.
func (c *Conn) verifyQuiet(a *runtime.Arena) {
	facts := c.facts()
	regs := c.regs
	env := c.buildEnv(a)
	globals := *env.Globals
	if got := env.Facts(); got != facts {
		VerifyQuiescence(fmt.Errorf("mptcp: at %v the connection's facts %#x differ from the snapshot's %#x", c.eng.Now(), facts, got))
		return
	}
	c.sched.Exec(env)
	if len(env.Actions) != 0 || c.regs != regs || *env.Globals != globals || env.DirtyGlobals() != 0 {
		VerifyQuiescence(fmt.Errorf("mptcp: at %v a certified execution acted (facts %#x, certificate %v): actions %v, registers %v → %v, globals %v → %v",
			c.eng.Now(), facts, env.Cert, env.Actions, regs, c.regs, globals, *env.Globals))
		c.regs, *env.Globals = regs, globals
		env.ClearDirtyGlobals()
		return
	}
	VerifyQuiescence(nil)
}
