// Package bus implements the intermediate storage server of the DCM
// architecture (§IV, Fig. 3). The paper puts Kafka between the monitoring
// agents (producers) and the optimization controller (consumer) because
// the two sides run at different rates; this package provides the same
// contract in-process: named topics backed by append-only logs with dense
// offsets, and consumers that each read a topic at their own pace.
//
// Every topic follows one retention rule: it keeps each message until
// every consumer registered on it has read it. NewConsumer creates the
// topic if needed and registers the consumer at once, at the oldest
// retained message; a topic no consumer has registered on yet keeps what
// is published to it for the first. Each topic log is one power-of-two
// ring, and its consumers act as the gating sequences of a
// Disruptor-style ring buffer: every read trims the log up to the lowest
// offset among them, so a topic holds what is in flight, not everything
// that was ever published.
//
// The bus is safe for concurrent use. Inside the deterministic simulation
// it is driven from a single goroutine, but the tests also exercise it
// under real concurrency so it can back a live deployment of the
// controller.
package bus

import "sync"

// Message is one record in a topic log.
type Message struct {
	// Topic the message was published to.
	Topic string
	// Offset is the message's position in the topic log, starting at 0.
	Offset int64
	// Key optionally identifies the producer (e.g. the VM name).
	Key string
	// Value is the payload. The bus does not interpret it.
	Value any
}

// Bus is an in-memory, multi-topic, append-only message log.
// The zero value is ready to use.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topicLog
}

// topicLog is one topic's retained messages, held in a ring.
type topicLog struct {
	// ring holds the retained messages from ring[head] on, wrapping at
	// the end; its length is zero or a power of two.
	ring []Message
	head int
	// n is the retained count.
	n int
	// base is the offset of the first retained message, i.e. the number
	// of messages retention has discarded.
	base int64
	// consumers gate retention.
	consumers []*Consumer
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{topics: make(map[string]*topicLog)}
}

// topic returns the named topic log, creating it if needed.
// The caller must hold b.mu.
func (b *Bus) topic(name string) *topicLog {
	if b.topics == nil {
		b.topics = make(map[string]*topicLog)
	}
	t, ok := b.topics[name]
	if !ok {
		t = &topicLog{}
		b.topics[name] = t
	}
	return t
}

// end is the offset the next published message gets.
func (t *topicLog) end() int64 { return t.base + int64(t.n) }

// slot returns the i-th retained message's place in the ring.
func (t *topicLog) slot(i int) *Message { return &t.ring[(t.head+i)&(len(t.ring)-1)] }

// push appends m, doubling a full ring.
func (t *topicLog) push(m Message) {
	if t.n == len(t.ring) {
		ring := make([]Message, max(2*len(t.ring), 1))
		t.copyTo(ring[:t.n], 0)
		t.ring, t.head = ring, 0
	}
	*t.slot(t.n) = m
	t.n++
}

// trim drops what every registered consumer has read, clearing each
// slot so the ring holds no payload it no longer retains. Only a
// consumer's read calls it, so the topic has at least one consumer.
func (t *topicLog) trim() {
	low := t.end()
	for _, c := range t.consumers {
		low = min(low, c.offset)
	}
	for ; t.base < low; t.base++ {
		*t.slot(0) = Message{}
		t.head = (t.head + 1) & (len(t.ring) - 1)
		t.n--
	}
}

// index returns the retained index of offset, advancing an offset below
// the retention horizon to the first retained message; it is t.n when
// offset is at or past the end.
func (t *topicLog) index(offset int64) int {
	if offset <= t.base {
		return 0
	}
	return int(min(offset-t.base, int64(t.n)))
}

// copyTo copies the retained messages from index i into dst, across the
// ring's seam. len(dst) must not exceed t.n-i.
func (t *topicLog) copyTo(dst []Message, i int) {
	if len(dst) == 0 {
		return
	}
	k := copy(dst, t.ring[(t.head+i)&(len(t.ring)-1):])
	copy(dst[k:], t.ring)
}

// Publish appends a message to topic, creating the topic if needed, and
// returns its offset.
func (b *Bus) Publish(topic, key string, value any) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topic)
	offset := t.end()
	t.push(Message{
		Topic:  topic,
		Offset: offset,
		Key:    key,
		Value:  value,
	})
	return offset
}

// Consumer reads a topic sequentially, tracking its own offset — the
// analogue of a Kafka consumer-group member for one topic.
type Consumer struct {
	bus    *Bus
	log    *topicLog
	offset int64
}

// NewConsumer creates topic if needed and registers a consumer on it,
// positioned at the oldest retained message. From then on the topic keeps
// every message until this consumer, like every other one registered on
// it, has read it.
func (b *Bus) NewConsumer(topic string) *Consumer {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topic)
	c := &Consumer{bus: b, log: t, offset: t.base}
	t.consumers = append(t.consumers, c)
	return c
}

// Poll returns up to limit new messages (limit <= 0 for all available) and
// advances the consumer offset past them.
func (c *Consumer) Poll(limit int) []Message {
	b := c.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	t := c.log
	i := t.index(c.offset)
	k := t.n - i
	if limit > 0 && limit < k {
		k = limit
	}
	if k == 0 {
		return nil
	}
	msgs := make([]Message, k)
	t.copyTo(msgs, i)
	c.offset = msgs[k-1].Offset + 1
	t.trim()
	return msgs
}

// Next returns the next message and advances the consumer offset past
// it, as Poll(1) does but without building a slice. ok is false when no
// new message is buffered.
func (c *Consumer) Next() (msg Message, ok bool) {
	b := c.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	t := c.log
	i := t.index(c.offset)
	if i == t.n {
		return Message{}, false
	}
	msg = *t.slot(i)
	c.offset = msg.Offset + 1
	t.trim()
	return msg, true
}
