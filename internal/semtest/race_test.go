//go:build race

package semtest

// Under the race detector sync.Pool drops items at random and the
// instrumentation itself allocates, so allocation counts only hold on
// production builds.
func init() { raceEnabled = true }
