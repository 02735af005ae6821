package mptcp

import (
	"time"
)

// The path manager's health check: every checkInterval it closes a
// subflow that has unacknowledged data but made no acknowledgement
// progress for deadAfter.
const (
	deadAfter     = 3 * time.Second
	checkInterval = 500 * time.Millisecond
)

// PathManager is the path-manager building block (§2.1 of the paper:
// "The path manager decides on the creation and removal of subflows.
// Compared to the scheduling decision, the path manager has relaxed
// time constraints"). It watches subflow health on that relaxed
// timescale and removes subflows that stopped making progress; once no
// non-backup subflow remains, it clears the backup flag of the
// lowest-RTT survivor, so preference-aware schedulers keep a preferred
// path. Subflow creation happens through Conn.AddSubflow (at connection
// setup or triggered by application logic); the manager owns removal
// and backup promotion.
type PathManager struct {
	conn *Conn
	// progress tracks the last SACK frontier and when it last moved.
	lastSacked []int64
	lastMove   []time.Duration
	stopped    bool

	// ClosedByManager counts subflows the manager tore down.
	ClosedByManager int
	// Promotions counts backup-flag promotions.
	Promotions int
}

// NewPathManager attaches a manager to conn and starts its periodic
// health checks.
func NewPathManager(conn *Conn) *PathManager {
	pm := &PathManager{conn: conn}
	pm.scheduleCheck()
	return pm
}

// Stop halts the periodic checks.
func (pm *PathManager) Stop() { pm.stopped = true }

func (pm *PathManager) scheduleCheck() {
	pm.conn.eng.After(checkInterval, func() {
		if pm.stopped {
			return
		}
		pm.check()
		pm.scheduleCheck()
	})
}

// check closes wedged subflows and promotes a backup when no preferred
// subflow is left.
func (pm *PathManager) check() {
	now := pm.conn.eng.Now()
	for i, s := range pm.conn.subflows {
		for len(pm.lastSacked) <= i {
			pm.lastSacked = append(pm.lastSacked, -1)
			pm.lastMove = append(pm.lastMove, now)
		}
		if !s.usable() {
			continue
		}
		if s.highestSacked > pm.lastSacked[i] {
			pm.lastSacked[i] = s.highestSacked
			pm.lastMove[i] = now
			continue
		}
		if s.nOut == 0 {
			// Idle subflows are healthy by definition.
			pm.lastMove[i] = now
			continue
		}
		if now-pm.lastMove[i] >= deadAfter {
			s.Close()
			pm.ClosedByManager++
		}
	}
	pm.promoteIfNeeded()
}

// promoteIfNeeded clears the backup flag on the best surviving subflow
// when every non-backup subflow is gone.
func (pm *PathManager) promoteIfNeeded() {
	var best *Subflow
	for _, s := range pm.conn.subflows {
		if !s.usable() {
			continue
		}
		if !s.backup {
			return // a preferred subflow still lives
		}
		if best == nil || s.srtt < best.srtt {
			best = s
		}
	}
	if best != nil {
		best.SetBackup(false)
		pm.Promotions++
		pm.conn.schedule()
	}
}
