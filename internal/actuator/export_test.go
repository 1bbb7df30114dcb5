package actuator

// Used only by this package's tests; no production code calls these.

// Records returns a copy of the actuation log.
func (va *VMAgent) Records() []Record {
	out := make([]Record, len(va.records))
	copy(out, va.records)
	return out
}
