package graph

// lruCache is a fixed-capacity LRU set over uint64 keys — the cache-tier
// node's hit/miss engine. Intrusive doubly-linked list over a map; O(1)
// access.
type lruCache struct {
	cap     int
	entries map[uint64]*lruEntry
	head    *lruEntry // most recently used
	tail    *lruEntry // least recently used
}

type lruEntry struct {
	key        uint64
	prev, next *lruEntry
}

// newLRUCache builds an empty cache holding at most capacity keys.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		entries: make(map[uint64]*lruEntry, capacity),
	}
}

// Access touches key, reporting whether it was resident (a hit). A miss
// inserts the key, evicting the least recently used entry at capacity —
// read-through semantics: after the miss the downstream fetch fills it.
func (c *lruCache) Access(key uint64) bool {
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		return true
	}
	e := &lruEntry{key: key}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
	return false
}

func (c *lruCache) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// cacheLookup performs one lookup at a cache node: with an LRU configured
// the key is drawn uniformly from the node's key space and checked for
// residence; otherwise the configured hit ratio is sampled directly.
// Exactly one rng draw either way.
func (a *App) cacheLookup(n *node) bool {
	var hit bool
	if n.lru != nil {
		key := a.rnd.Uint64() % uint64(n.spec.KeySpace)
		hit = n.lru.Access(key)
	} else {
		hit = a.rnd.Float64() < n.spec.HitRatio
	}
	if hit {
		n.hits++
	} else {
		n.misses++
	}
	return hit
}
