package graph

// Used only by this package's tests; no production code calls these.

// Len returns the number of resident keys.
func (c *lruCache) Len() int { return len(c.entries) }
