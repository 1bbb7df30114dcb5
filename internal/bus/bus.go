// Package bus implements the intermediate storage server of the DCM
// architecture (§IV, Fig. 3). The paper uses Kafka to decouple the
// monitoring agents (producers) from the optimization controller
// (consumer), because the two sides operate at different rates; this
// package provides the same contract in-process: named topics backed by
// append-only logs, offset-based consumption, and independent consumer
// positions.
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

// Errors returned by the bus.
var (
	ErrClosed       = errors.New("bus: closed")
	ErrUnknownTopic = errors.New("bus: unknown topic")
)

// Bus is an in-memory, multi-topic, append-only message log.
// The zero value is ready to use.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topicLog
	closed bool
}

type topicLog struct {
	messages []Message
	// head indexes the first retained message within messages; dropping is
	// done by advancing head, with occasional amortized compaction.
	head int
	// retention bounds the retained length; 0 keeps everything.
	retention int
	// dropped counts messages discarded by retention, i.e. the offset of
	// the first retained message.
	dropped int64
}

// retained returns the live slice of the log.
func (t *topicLog) retained() []Message { return t.messages[t.head:] }

// New returns an empty bus.
func New() *Bus {
	return &Bus{topics: make(map[string]*topicLog)}
}

// CreateTopic declares a topic with a retention limit of retain messages
// (0 = unlimited). Creating an existing topic only tightens or loosens its
// retention. Publishing to an undeclared topic creates it implicitly with
// unlimited retention.
func (b *Bus) CreateTopic(topic string, retain int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	t := b.topic(topic)
	if retain < 0 {
		retain = 0
	}
	t.retention = retain
	t.enforceRetention()
	return nil
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

func (t *topicLog) enforceRetention() {
	if t.retention <= 0 {
		return
	}
	live := len(t.messages) - t.head
	if live <= t.retention {
		return
	}
	drop := live - t.retention
	t.head += drop
	t.dropped += int64(drop)
	// Amortized compaction releases the array's dead head for garbage
	// collection without copying on every publish.
	if t.head > 1024 && t.head > len(t.messages)/2 {
		kept := make([]Message, len(t.messages)-t.head)
		copy(kept, t.messages[t.head:])
		t.messages = kept
		t.head = 0
	}
}

// Publish appends a message to topic and returns its offset.
func (b *Bus) Publish(topic, key string, value any) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	t := b.topic(topic)
	offset := t.dropped + int64(len(t.messages)-t.head)
	t.messages = append(t.messages, Message{
		Topic:  topic,
		Offset: offset,
		Key:    key,
		Value:  value,
	})
	t.enforceRetention()
	return offset, nil
}

// Fetch returns up to limit messages from topic starting at offset
// (limit <= 0 means no limit). Offsets below the retention horizon are
// advanced to the first retained message, mirroring Kafka's
// auto.offset.reset=earliest behaviour.
func (b *Bus) Fetch(topic string, offset int64, limit int) ([]Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, topic)
	}
	live := t.from(offset)
	if len(live) == 0 {
		return nil, nil
	}
	if limit > 0 && limit < len(live) {
		live = live[:limit]
	}
	out := make([]Message, len(live))
	copy(out, live)
	return out, nil
}

// from returns the retained messages at and after offset, advancing an
// offset below the retention horizon as Fetch documents.
func (t *topicLog) from(offset int64) []Message {
	if offset < t.dropped {
		offset = t.dropped
	}
	live := t.retained()
	if start := offset - t.dropped; start < int64(len(live)) {
		return live[start:]
	}
	return nil
}

// Close shuts the bus down; subsequent operations return ErrClosed.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.topics = nil
}

// Consumer reads a topic sequentially, tracking its own offset — the
// analogue of a Kafka consumer-group member for one topic.
type Consumer struct {
	bus    *Bus
	topic  string
	offset int64
}

// NewConsumer returns a consumer positioned at the given offset of topic.
// Use offset 0 to read from the beginning.
func (b *Bus) NewConsumer(topic string, offset int64) *Consumer {
	if offset < 0 {
		offset = 0
	}
	return &Consumer{bus: b, topic: topic, offset: offset}
}

// Poll returns up to limit new messages (limit <= 0 for all available) and
// advances the consumer offset past them. A consumer on an as-yet-unknown
// topic simply reads nothing.
func (c *Consumer) Poll(limit int) ([]Message, error) {
	msgs, err := c.bus.Fetch(c.topic, c.offset, limit)
	if err != nil {
		if errors.Is(err, ErrUnknownTopic) {
			return nil, nil
		}
		return nil, err
	}
	if len(msgs) > 0 {
		c.offset = msgs[len(msgs)-1].Offset + 1
	}
	return msgs, nil
}

// Next returns the next message and advances the consumer offset past
// it, as Poll(1) does but without building a slice. ok is false when no
// new message is buffered, including on an as-yet-unknown topic.
func (c *Consumer) Next() (msg Message, ok bool, err error) {
	b := c.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return Message{}, false, ErrClosed
	}
	t, known := b.topics[c.topic]
	if !known {
		return Message{}, false, nil
	}
	live := t.from(c.offset)
	if len(live) == 0 {
		return Message{}, false, nil
	}
	msg = live[0]
	c.offset = msg.Offset + 1
	return msg, true, nil
}

// Offset returns the consumer's next-read position.
func (c *Consumer) Offset() int64 { return c.offset }
