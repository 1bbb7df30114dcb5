package sim

// Used only by this package's tests; no production code calls it.

// Pending reports whether the event is still scheduled to fire: it has
// neither fired nor been canceled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.seq == t.seq && t.ev.fn != nil
}
