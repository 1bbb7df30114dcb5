package monitor

import "time"

// Used only by this package's tests; no production code calls these.

// AgentCount returns the number of attached per-VM agents.
func (f *Fleet) AgentCount() int { return len(f.agents) }

// Interval returns the sampling cadence.
func (f *Fleet) Interval() time.Duration { return f.interval }
