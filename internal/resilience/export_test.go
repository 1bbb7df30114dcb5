package resilience

// Used only by this package's tests; no production code calls these.

// Opened returns the lifetime number of open transitions.
func (b *Breaker) Opened() uint64 { return b.opened }

// BudgetScale returns the current brownout budget multiplier.
func (r *Retrier) BudgetScale() float64 { return r.scale }

// ClassDebits returns the audited per-class budget debits (critical,
// best-effort). The sum equals every budget token Allow has ever
// consumed; a classless request counts as best-effort.
func (r *Retrier) ClassDebits() (critical, bestEffort uint64) {
	return r.critDebits, r.beDebits
}
