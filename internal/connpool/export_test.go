package connpool

// Used only by this package's tests; no production code calls these.

// Leaked returns the number of units currently consumed by Leak.
func (g *Gate[E, X]) Leaked() int { return g.l.Leaked }

// Size returns the configured number of units.
func (g *Gate[E, X]) Size() int { return g.l.Size }
