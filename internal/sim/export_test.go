package sim

// Used only by this package's tests; no production code calls these.

// Pending reports whether the event is still scheduled to fire: it has
// neither fired nor been canceled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// At returns the virtual time the event was scheduled for (zero for the
// zero Timer).
func (t Timer) At() Time { return t.at }
