package bus

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestPublishFetch(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("metrics")
	for i := 0; i < 5; i++ {
		if off := b.Publish("metrics", "vm1", i); off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	c.SeekTo(2)
	msgs := c.Poll(0)
	if len(msgs) != 3 {
		t.Fatalf("got %d messages, want 3", len(msgs))
	}
	if msgs[0].Offset != 2 || msgs[0].Value != 2 {
		t.Fatalf("first = %+v", msgs[0])
	}
	if msgs[0].Topic != "metrics" || msgs[0].Key != "vm1" {
		t.Fatalf("metadata = %+v", msgs[0])
	}
}

func TestFetchLimit(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("t")
	for i := 0; i < 10; i++ {
		b.Publish("t", "", i)
	}
	if msgs := c.Poll(4); len(msgs) != 4 {
		t.Fatalf("limit ignored: %d", len(msgs))
	}
}

// TestFetchUnknownTopic: a consumer on a topic nothing was published to
// reads nothing, and creating it leaves the topic empty.
func TestFetchUnknownTopic(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("nope")
	if m, ok := c.Next(); ok {
		t.Fatalf("read %+v from an empty topic", m)
	}
	if got := b.EndOffset("nope"); got != 0 {
		t.Fatalf("EndOffset = %d, want 0", got)
	}
}

func TestFetchPastEnd(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("t")
	b.Publish("t", "", 1)
	c.SeekTo(99)
	if msgs := c.Poll(0); len(msgs) != 0 {
		t.Fatalf("got %d messages past end", len(msgs))
	}
}

// TestRetention: a topic drops what its consumer has read, and the rest
// stays in offset order.
func TestRetention(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("t")
	for i := 0; i < 10; i++ {
		b.Publish("t", "", i)
	}
	if got := len(c.Poll(7)); got != 7 {
		t.Fatalf("polled %d, want 7", got)
	}
	if msgs := b.retained("t"); len(msgs) != 3 || msgs[0].Offset != 7 {
		t.Fatalf("retained = %+v", msgs)
	}
	if got := b.EndOffset("t"); got != 10 {
		t.Fatalf("EndOffset = %d, want 10", got)
	}
}

// TestConsumerReadsReleaseEverything: a consumer registered on a fresh
// topic that reads every message with Next leaves nothing retained. A
// topic that keeps what its only consumer has read fails it.
func TestConsumerReadsReleaseEverything(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("fresh")
	for i := 0; i < 10; i++ {
		b.Publish("fresh", "", i)
	}
	for i := 0; i < 10; i++ {
		if m, ok := c.Next(); !ok || m.Offset != int64(i) {
			t.Fatalf("read %d: %+v ok=%v", i, m, ok)
		}
	}
	if got := len(b.retained("fresh")); got != 0 {
		t.Fatalf("retained %d messages after every read, want 0", got)
	}
}

func TestEndOffsetUnknown(t *testing.T) {
	t.Parallel()
	if got := New().EndOffset("none"); got != 0 {
		t.Fatalf("EndOffset = %d", got)
	}
}

func TestTopics(t *testing.T) {
	t.Parallel()
	b := New()
	b.Publish("a", "", 1)
	b.NewConsumer("b")
	names := b.Topics()
	if len(names) != 2 {
		t.Fatalf("Topics = %v", names)
	}
}

func TestZeroValueUsable(t *testing.T) {
	t.Parallel()
	var b Bus
	b.Publish("t", "", 1)
	if m, ok := b.NewConsumer("t").Next(); !ok || m.Value != 1 {
		t.Fatalf("read %+v ok=%v", m, ok)
	}
}

func TestConsumerPoll(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("m")
	// Empty topic: nothing, no error.
	if msgs := c.Poll(0); len(msgs) != 0 {
		t.Fatalf("poll empty: %v", msgs)
	}
	for i := 0; i < 5; i++ {
		b.Publish("m", "", i)
	}
	msgs := c.Poll(3)
	if len(msgs) != 3 || msgs[2].Offset != 2 {
		t.Fatalf("first poll = %+v", msgs)
	}
	msgs = c.Poll(0)
	if len(msgs) != 2 || msgs[0].Offset != 3 {
		t.Fatalf("second poll = %+v", msgs)
	}
	if c.Offset() != 5 {
		t.Fatalf("offset = %d", c.Offset())
	}
}

func TestConsumerSeekTo(t *testing.T) {
	t.Parallel()
	b := New()
	for i := 0; i < 5; i++ {
		b.Publish("m", "", i)
	}
	c := b.NewConsumer("m")
	c.SeekTo(b.EndOffset("m"))
	if msgs := c.Poll(0); len(msgs) != 0 {
		t.Fatalf("tail consumer read old messages: %v", msgs)
	}
	c.SeekTo(1)
	if msgs := c.Poll(0); len(msgs) != 4 {
		t.Fatalf("after seek: %d messages", len(msgs))
	}
	c.SeekTo(-5)
	if c.Offset() != 0 {
		t.Fatalf("negative seek not clamped: %d", c.Offset())
	}
}

// TestConsumerSurvivesRetention: a consumer registered after others have
// trimmed the topic starts at the earliest retained message.
func TestConsumerSurvivesRetention(t *testing.T) {
	t.Parallel()
	b := New()
	first := b.NewConsumer("m")
	for i := 0; i < 10; i++ {
		b.Publish("m", "", i)
	}
	first.Poll(8)
	late := b.NewConsumer("m")
	if late.Offset() != 8 {
		t.Fatalf("late consumer starts at %d, want 8", late.Offset())
	}
	msgs := late.Poll(0)
	if len(msgs) != 2 || msgs[0].Offset != 8 {
		t.Fatalf("consumer did not start at earliest: %+v", msgs)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("t")
	const (
		producers = 8
		perProd   = 200
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				b.Publish("t", "", i)
			}
		}()
	}
	wg.Wait()
	if got := b.EndOffset("t"); got != producers*perProd {
		t.Fatalf("EndOffset = %d, want %d", got, producers*perProd)
	}
	for i, m := range c.Poll(0) {
		if m.Offset != int64(i) {
			t.Fatalf("offset %d at position %d", m.Offset, i)
		}
	}
}

func TestConcurrentConsumerAndProducer(t *testing.T) {
	t.Parallel()
	b := New()
	const total = 1000
	done := make(chan int, 1)
	c := b.NewConsumer("t")
	go func() {
		seen := 0
		for seen < total {
			seen += len(c.Poll(0))
		}
		done <- seen
	}()
	for i := 0; i < total; i++ {
		b.Publish("t", "", i)
	}
	if seen := <-done; seen != total {
		t.Fatalf("consumer saw %d of %d", seen, total)
	}
}

// TestOffsetsContiguousProperty: published offsets are dense and retained
// in order with reads interleaved, and the topic retains exactly what its
// consumer has not read.
func TestOffsetsContiguousProperty(t *testing.T) {
	t.Parallel()
	prop := func(countRaw uint8, readRaw uint8) bool {
		count := int(countRaw%64) + 1
		b := New()
		c := b.NewConsumer("t")
		read := 0
		for i := 0; i < count; i++ {
			if off := b.Publish("t", "", i); off != int64(i) {
				return false
			}
			// readRaw's bits pick which publishes a read follows.
			if readRaw>>(i%8)&1 == 1 {
				if _, ok := c.Next(); ok {
					read++
				}
			}
		}
		msgs := b.retained("t")
		for i, m := range msgs {
			if m.Offset != int64(count-len(msgs)+i) || m.Value != int(m.Offset) {
				return false
			}
		}
		return len(msgs) == count-read && int(c.Offset()) == read
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// retentionModes are the two ways the one retention rule plays out for
// the readers of a topic. Under "unbounded" an idle consumer that never
// reads is registered too, so it gates retention at offset 0 and the log
// keeps everything; under "until-read" only the readers are registered,
// so their reads trim the log. TestConsumerNextMatchesPoll runs over each.
var retentionModes = []struct {
	name string
	idle bool
}{
	{"unbounded", true},
	{"until-read", false},
}

// TestConsumerNextMatchesPoll drives two consumers over one topic, one by
// Next and one by Poll(1), under each retention mode. Publishes come in
// varying bursts. Every read must return the same message, the next one
// in offset order, and leave both consumers at the same offset; the topic
// must end holding what its mode promises; and Next must allocate
// nothing. Neither the test nor its modes run in parallel, so no other
// test's allocations reach the allocation count.
func TestConsumerNextMatchesPoll(t *testing.T) {
	for _, mode := range retentionModes {
		t.Run(mode.name, func(t *testing.T) {
			b := New()
			next, poll := b.NewConsumer("m"), b.NewConsumer("m")
			if mode.idle {
				b.NewConsumer("m")
			}
			check := func(step string) {
				t.Helper()
				from := next.Offset()
				got, ok := next.Next()
				msgs := poll.Poll(1)
				if ok != (len(msgs) == 1) {
					t.Fatalf("%s: Next ok=%v, Poll returned %d messages", step, ok, len(msgs))
				}
				if ok && got != msgs[0] {
					t.Fatalf("%s: Next = %+v, Poll = %+v", step, got, msgs[0])
				}
				if ok && got.Offset != from {
					t.Fatalf("%s: read offset %d, want %d", step, got.Offset, from)
				}
				if next.Offset() != poll.Offset() {
					t.Fatalf("%s: offsets Next %d, Poll %d", step, next.Offset(), poll.Offset())
				}
			}
			check("empty topic")
			for i := 0; i < 20; i++ {
				for j := 0; j < i%5; j++ {
					b.Publish("m", "k", i*10+j)
				}
				check("read")
				check("read again")
			}
			for next.Offset() < b.EndOffset("m") {
				check("drain")
			}
			check("drained")
			if next.Offset() != b.EndOffset("m") {
				t.Fatalf("Next consumer at %d, topic end %d", next.Offset(), b.EndOffset("m"))
			}
			want := 0
			if mode.idle {
				want = int(b.EndOffset("m"))
			}
			if got := len(b.retained("m")); got != want {
				t.Fatalf("topic retains %d messages after the drain, want %d", got, want)
			}
			all := b.NewConsumer("all")
			if mode.idle {
				b.NewConsumer("all")
			}
			for i := 0; i < 200; i++ {
				b.Publish("all", "k", i)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, ok := all.Next(); !ok {
					t.Fatal("Next: nothing buffered")
				}
			})
			if allocs != 0 {
				t.Errorf("Next allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// TestRingWrapsUnderRetention keeps a topic's consumer a few messages
// behind its publisher, so the ring wraps many times without growing.
// Offsets stay contiguous, and the retained messages read in order across
// the seam.
func TestRingWrapsUnderRetention(t *testing.T) {
	t.Parallel()
	b := New()
	lagged := b.NewConsumer("lagged")
	const total = 100
	for i := 0; i < total; i++ {
		if off := b.Publish("lagged", "", i); off != int64(i) {
			t.Fatalf("publish %d: offset %d", i, off)
		}
		// The lagged consumer reads one message every other publish
		// until it is three behind, then keeps pace.
		if i%2 == 0 || b.EndOffset("lagged")-lagged.Offset() > 3 {
			if m, ok := lagged.Next(); !ok || m.Value != int(m.Offset) {
				t.Fatalf("lagged read after %d: %+v ok=%v", i, m, ok)
			}
		}
		lo := lagged.Offset()
		msgs := b.retained("lagged")
		if int64(len(msgs)) != int64(i)+1-lo {
			t.Fatalf("after %d: retained %d, want %d", i, len(msgs), int64(i)+1-lo)
		}
		for j, m := range msgs {
			if m.Offset != lo+int64(j) || m.Value != int(m.Offset) {
				t.Fatalf("after %d: message %d is %+v, want offset %d", i, j, m, lo+int64(j))
			}
		}
	}
	if got := b.ringLen("lagged"); got != 4 {
		t.Fatalf("ring grew to %d slots, want 4 for a backlog of at most 4", got)
	}
}

// TestRetainUntilReadLowWaterMark: a topic keeps everything its slowest
// registered consumer has not read, trims as that consumer catches up,
// and keeps everything while no consumer is registered. A consumer made
// before anything is published gates the topic from the start.
func TestRetainUntilReadLowWaterMark(t *testing.T) {
	t.Parallel()
	b := New()
	publish := func(topic string, k int) {
		for i := 0; i < k; i++ {
			b.Publish(topic, "", i)
		}
	}
	retained := func(topic string) (int, int64) {
		t.Helper()
		msgs := b.retained(topic)
		if len(msgs) == 0 {
			return 0, b.EndOffset(topic)
		}
		return len(msgs), msgs[0].Offset
	}
	publish("q", 6)
	if n, _ := retained("q"); n != 6 {
		t.Fatalf("no consumer registered: retained %d, want all 6", n)
	}
	fast, slow := b.NewConsumer("q"), b.NewConsumer("q")
	for i := 0; i < 5; i++ {
		if _, ok := fast.Next(); !ok {
			t.Fatalf("fast read %d failed", i)
		}
	}
	if _, ok := slow.Next(); !ok {
		t.Fatal("slow read failed")
	}
	if n, lo := retained("q"); n != 5 || lo != 1 {
		t.Fatalf("slow consumer at 1: retained %d from %d, want 5 from 1", n, lo)
	}
	slow.Poll(3)
	if n, lo := retained("q"); n != 2 || lo != 4 {
		t.Fatalf("slow at 4, fast at 5: retained %d from %d, want 2 from 4", n, lo)
	}
	fast.Poll(0)
	slow.Poll(0)
	if n, _ := retained("q"); n != 0 {
		t.Fatalf("all consumers drained: retained %d, want 0", n)
	}

	// A consumer registered on an empty topic gates it although it never
	// reads: the other consumer's reads trim nothing.
	early, reader := b.NewConsumer("e"), b.NewConsumer("e")
	publish("e", 4)
	reader.Poll(0)
	if n, lo := retained("e"); n != 4 || lo != 0 {
		t.Fatalf("idle early consumer: retained %d from %d, want 4 from 0", n, lo)
	}
	early.Poll(0)
	if n, _ := retained("e"); n != 0 {
		t.Fatalf("both consumers drained: retained %d, want 0", n)
	}
}
