package monitor

import "time"

// Used only by this package's tests; no production code calls these.

// AgentCount returns the number of attached per-VM agents.
func (f *Fleet) AgentCount() int { return len(f.agents) }

// Interval returns the sampling cadence.
func (f *Fleet) Interval() time.Duration { return f.interval }

// Any reports whether the guard intervened at all.
func (s GuardStats) Any() bool {
	return s.Stale > 0 || s.NonMonotonic > 0 || s.Outliers > 0 || s.Smoothed > 0
}
