package invariant

import "fmt"

// Used only by this package's tests; no production code calls these.

// Enabled reports whether the checker records anything; callers on hot
// paths should instead guard with a plain `chk != nil` comparison.
func (c *Checker) Enabled() bool { return c != nil }

// Err summarizes the checker's state as a single error, nil when clean.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s", c.total, c.violations[0])
}
