// Package bus implements the intermediate storage server of the DCM
// architecture (§IV, Fig. 3). The paper uses Kafka to decouple the
// monitoring agents (producers) from the optimization controller
// (consumer), because the two sides operate at different rates; this
// package provides the same contract in-process: named topics backed by
// append-only logs, offset-based consumption, and independent consumer
// positions.
//
// Each topic log is one power-of-two ring of messages with dense offsets.
// Like a Kafka topic, a topic has a retention policy:
//
//   - unbounded (every topic created implicitly by Publish): the ring
//     doubles when full and keeps every message, so a reader can re-read
//     the whole log from offset 0 after a run;
//   - retain-until-read (every topic declared with CreateTopic): the ring
//     keeps only messages some consumer of the topic has not yet read.
//     The consumers act as the gating sequences of a Disruptor-style ring
//     buffer: every read trims the log up to the lowest offset among
//     them, so the log holds what is in flight, not everything that was
//     ever published.
//
// Reading an offset below a topic's retention horizon resumes at the
// first retained message, as Kafka's auto.offset.reset=earliest does.
//
// The bus is safe for concurrent use. Inside the deterministic simulation
// it is driven from a single goroutine, but the tests also exercise it
// under real concurrency so it can back a live deployment of the
// controller.
package bus

import (
	"errors"
	"fmt"
	"sync"
)

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

// ErrUnknownTopic is returned by Fetch for a topic that does not exist.
var ErrUnknownTopic = errors.New("bus: unknown topic")

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
	// untilRead marks a retain-until-read topic; otherwise the topic
	// keeps everything.
	untilRead bool
	// consumers gate a retain-until-read topic.
	consumers []*Consumer
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{topics: make(map[string]*topicLog)}
}

// CreateTopic declares a retain-until-read topic: it keeps a message only
// until every consumer registered on it has read it. A consumer is
// registered when it is created on a declared topic, or on its first read
// once the topic exists; a topic with no registered consumer keeps
// everything. Declaring an existing topic makes it retain-until-read and
// drops what its consumers have already read. Publishing to an undeclared
// topic creates it implicitly with unlimited retention.
func (b *Bus) CreateTopic(topic string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topic)
	t.untilRead = true
	t.trim()
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

// drop discards the k oldest retained messages, clearing their slots so
// the ring holds no payload it no longer retains.
func (t *topicLog) drop(k int) {
	for i := 0; i < k; i++ {
		*t.slot(i) = Message{}
	}
	t.head = (t.head + k) & (len(t.ring) - 1)
	t.n -= k
	t.base += int64(k)
}

// trim drops what every registered consumer of a retain-until-read topic
// has read.
func (t *topicLog) trim() {
	if !t.untilRead || len(t.consumers) == 0 {
		return
	}
	low := t.end()
	for _, c := range t.consumers {
		low = min(low, c.offset)
	}
	if low > t.base {
		t.drop(int(low - t.base))
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

// fetch copies up to limit messages at and after offset (limit <= 0
// means no limit). The caller must hold the bus lock.
func (t *topicLog) fetch(offset int64, limit int) []Message {
	i := t.index(offset)
	k := t.n - i
	if limit > 0 && limit < k {
		k = limit
	}
	if k == 0 {
		return nil
	}
	out := make([]Message, k)
	t.copyTo(out, i)
	return out
}

// Publish appends a message to topic and returns its offset.
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

// Fetch returns up to limit messages from topic starting at offset
// (limit <= 0 means no limit). Offsets below the retention horizon are
// advanced to the first retained message, mirroring Kafka's
// auto.offset.reset=earliest behaviour.
func (b *Bus) Fetch(topic string, offset int64, limit int) ([]Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, topic)
	}
	return t.fetch(offset, limit), nil
}

// Consumer reads a topic sequentially, tracking its own offset — the
// analogue of a Kafka consumer-group member for one topic.
type Consumer struct {
	bus   *Bus
	topic string
	// log is the topic's log once the consumer has registered on it.
	log    *topicLog
	offset int64
}

// NewConsumer returns a consumer positioned at the given offset of topic.
// Use offset 0 to read from the beginning.
func (b *Bus) NewConsumer(topic string, offset int64) *Consumer {
	c := &Consumer{bus: b, topic: topic, offset: max(offset, 0)}
	b.mu.Lock()
	defer b.mu.Unlock()
	c.attach()
	return c
}

// attach registers the consumer on its topic's log once the topic exists
// and reports whether it has. The caller must hold the bus lock.
func (c *Consumer) attach() bool {
	if c.log == nil {
		t, ok := c.bus.topics[c.topic]
		if !ok {
			return false
		}
		c.log = t
		t.consumers = append(t.consumers, c)
	}
	return true
}

// Poll returns up to limit new messages (limit <= 0 for all available) and
// advances the consumer offset past them. A consumer on an as-yet-unknown
// topic simply reads nothing.
func (c *Consumer) Poll(limit int) []Message {
	b := c.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if !c.attach() {
		return nil
	}
	msgs := c.log.fetch(c.offset, limit)
	if len(msgs) > 0 {
		c.offset = msgs[len(msgs)-1].Offset + 1
		c.log.trim()
	}
	return msgs
}

// Next returns the next message and advances the consumer offset past
// it, as Poll(1) does but without building a slice. ok is false when no
// new message is buffered, including on an as-yet-unknown topic.
func (c *Consumer) Next() (msg Message, ok bool) {
	b := c.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if !c.attach() {
		return Message{}, false
	}
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
