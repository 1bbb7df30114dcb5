package bus

// Used only by this package's tests; no production code calls these.

// EndOffset returns the offset one past the last message in topic
// (0 for an unknown or empty topic).
func (b *Bus) EndOffset(topic string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[topic]
	if !ok {
		return 0
	}
	return t.end()
}

// Topics returns the names of all topics, in unspecified order.
func (b *Bus) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// SeekTo repositions the consumer.
func (c *Consumer) SeekTo(offset int64) {
	if offset < 0 {
		offset = 0
	}
	c.offset = offset
}

// ringLen returns the length of topic's ring (0 for an unknown topic).
func (b *Bus) ringLen(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[topic]; ok {
		return len(t.ring)
	}
	return 0
}
