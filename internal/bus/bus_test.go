package bus

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestPublishFetch(t *testing.T) {
	t.Parallel()
	b := New()
	for i := 0; i < 5; i++ {
		if off := b.Publish("metrics", "vm1", i); off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	msgs, err := b.Fetch("metrics", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	for i := 0; i < 10; i++ {
		b.Publish("t", "", i)
	}
	msgs, err := b.Fetch("t", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("limit ignored: %d", len(msgs))
	}
}

func TestFetchUnknownTopic(t *testing.T) {
	t.Parallel()
	b := New()
	if _, err := b.Fetch("nope", 0, 0); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
}

func TestFetchPastEnd(t *testing.T) {
	t.Parallel()
	b := New()
	b.Publish("t", "", 1)
	msgs, err := b.Fetch("t", 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("got %d messages past end", len(msgs))
	}
}

// TestRetention: a retain-until-read topic drops what its consumer has
// read, and a fetch below the retention horizon resumes at the earliest
// retained message.
func TestRetention(t *testing.T) {
	t.Parallel()
	b := New()
	b.CreateTopic("t")
	c := b.NewConsumer("t", 0)
	for i := 0; i < 10; i++ {
		b.Publish("t", "", i)
	}
	if got := len(c.Poll(7)); got != 7 {
		t.Fatalf("polled %d, want 7", got)
	}
	// Only offsets 7, 8, 9 retained; a fetch from 0 resets to earliest.
	msgs, err := b.Fetch("t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[0].Offset != 7 {
		t.Fatalf("retained = %+v", msgs)
	}
	if got := b.EndOffset("t"); got != 10 {
		t.Fatalf("EndOffset = %d, want 10", got)
	}
}

// TestCreateTopicTightensRetention: declaring a topic that Publish
// created keeps everything until then, and drops what its consumer has
// already read once declared.
func TestCreateTopicTightensRetention(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("t", 0)
	for i := 0; i < 10; i++ {
		b.Publish("t", "", i)
	}
	if got := len(c.Poll(8)); got != 8 {
		t.Fatalf("polled %d, want 8", got)
	}
	if msgs, err := b.Fetch("t", 0, 0); err != nil || len(msgs) != 10 {
		t.Fatalf("undeclared topic retained %d (err %v), want all 10", len(msgs), err)
	}
	b.CreateTopic("t")
	msgs, err := b.Fetch("t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Offset != 8 {
		t.Fatalf("retained after tighten = %+v", msgs)
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
	b.CreateTopic("b")
	names := b.Topics()
	if len(names) != 2 {
		t.Fatalf("Topics = %v", names)
	}
}

func TestZeroValueUsable(t *testing.T) {
	t.Parallel()
	var b Bus
	b.Publish("t", "", 1)
}

func TestConsumerPoll(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("m", 0)
	// Unknown topic: nothing, no error.
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
	c := b.NewConsumer("m", b.EndOffset("m"))
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

// TestConsumerSurvivesRetention: a consumer that starts below the
// retention horizon resumes at the earliest retained message.
func TestConsumerSurvivesRetention(t *testing.T) {
	t.Parallel()
	b := New()
	b.CreateTopic("m")
	first := b.NewConsumer("m", 0)
	for i := 0; i < 10; i++ {
		b.Publish("m", "", i)
	}
	first.Poll(8)
	// The late consumer's first read registers it; until then the first
	// consumer alone trimmed offsets 0..7.
	msgs := b.NewConsumer("m", 0).Poll(0)
	if len(msgs) != 2 || msgs[0].Offset != 8 {
		t.Fatalf("consumer did not reset to earliest: %+v", msgs)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	t.Parallel()
	b := New()
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
	msgs, err := b.Fetch("t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
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
	go func() {
		c := b.NewConsumer("t", 0)
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

// retentionModes are the two retention policies a topic can have: kept
// whole when Publish creates it, retain-until-read when CreateTopic
// declares it. TestConsumerNextMatchesPoll runs over each.
var retentionModes = []struct {
	name    string
	declare bool
}{
	{"unbounded", false},
	{"until-read", true},
}

// TestOffsetsContiguousProperty: published offsets are dense and fetchable
// in order under every retention mode, with reads interleaved, and each
// mode retains exactly what it promises: everything, or what the consumer
// has not read.
func TestOffsetsContiguousProperty(t *testing.T) {
	t.Parallel()
	prop := func(countRaw uint8, declare bool, readRaw uint8) bool {
		count := int(countRaw%64) + 1
		b := New()
		if declare {
			b.CreateTopic("t")
		}
		c := b.NewConsumer("t", 0)
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
		msgs, err := b.Fetch("t", 0, 0)
		if err != nil || len(msgs) == 0 && !declare {
			return false
		}
		for i, m := range msgs {
			if m.Offset != int64(count-len(msgs)+i) || m.Value != int(m.Offset) {
				return false
			}
		}
		want := count
		if declare {
			want = count - int(c.Offset())
		}
		return len(msgs) == want && int(c.Offset()) == read
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConsumerNextMatchesPoll drives two consumers over one topic, one by
// Next and one by Poll(1), under each retention mode. Publishes come in
// varying bursts. Every read must return the same message, the next one
// in offset order, and leave both consumers at the same offset, and Next
// must allocate nothing. Neither the test nor its modes run in parallel,
// so no other test's allocations reach the allocation count.
func TestConsumerNextMatchesPoll(t *testing.T) {
	for _, mode := range retentionModes {
		t.Run(mode.name, func(t *testing.T) {
			b := New()
			if mode.declare {
				b.CreateTopic("m")
			}
			next, poll := b.NewConsumer("m", 0), b.NewConsumer("m", 0)
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
			if _, ok := b.NewConsumer("absent", 0).Next(); ok {
				t.Fatal("unknown topic: read a message, want nothing")
			}
			if mode.declare {
				b.CreateTopic("all")
			}
			for i := 0; i < 200; i++ {
				b.Publish("all", "k", i)
			}
			all := b.NewConsumer("all", 0)
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

// TestRingWrapsUnderRetention keeps a retain-until-read topic's consumer a
// few messages behind its publisher, so the ring wraps many times without
// growing. Offsets stay contiguous, and Fetch reads in order across the
// seam.
func TestRingWrapsUnderRetention(t *testing.T) {
	t.Parallel()
	b := New()
	b.CreateTopic("lagged")
	lagged := b.NewConsumer("lagged", 0)
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
		msgs, err := b.Fetch("lagged", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(msgs)) != int64(i)+1-lo {
			t.Fatalf("after %d: retained %d, want %d", i, len(msgs), int64(i)+1-lo)
		}
		for j, m := range msgs {
			if m.Offset != lo+int64(j) || m.Value != int(m.Offset) {
				t.Fatalf("after %d: message %d is %+v, want offset %d", i, j, m, lo+int64(j))
			}
		}
		// A limited fetch from the middle crosses the seam too.
		if len(msgs) >= 3 {
			mid, err := b.Fetch("lagged", lo+1, 2)
			if err != nil || len(mid) != 2 || mid[0] != msgs[1] || mid[1] != msgs[2] {
				t.Fatalf("after %d: Fetch(%d, 2) = %+v, %v", i, lo+1, mid, err)
			}
		}
	}
	if got := b.ringLen("lagged"); got != 4 {
		t.Fatalf("until-read ring grew to %d slots, want 4 for a backlog of at most 4", got)
	}
}

// TestRetainUntilReadLowWaterMark: a retain-until-read topic keeps
// everything its slowest registered consumer has not read, trims as that
// consumer catches up, and keeps everything while no consumer is
// registered. A consumer made before the topic exists registers on its
// first read.
func TestRetainUntilReadLowWaterMark(t *testing.T) {
	t.Parallel()
	b := New()
	early := b.NewConsumer("q", 0) // the topic does not exist yet
	b.CreateTopic("q")
	publish := func(k int) {
		for i := 0; i < k; i++ {
			b.Publish("q", "", i)
		}
	}
	retained := func() (int, int64) {
		t.Helper()
		msgs, err := b.Fetch("q", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return 0, b.EndOffset("q")
		}
		return len(msgs), msgs[0].Offset
	}
	publish(6)
	if n, _ := retained(); n != 6 {
		t.Fatalf("no consumer registered: retained %d, want all 6", n)
	}
	fast, slow := b.NewConsumer("q", 0), b.NewConsumer("q", 0)
	for i := 0; i < 5; i++ {
		if _, ok := fast.Next(); !ok {
			t.Fatalf("fast read %d failed", i)
		}
	}
	if _, ok := slow.Next(); !ok {
		t.Fatal("slow read failed")
	}
	if n, lo := retained(); n != 5 || lo != 1 {
		t.Fatalf("slow consumer at 1: retained %d from %d, want 5 from 1", n, lo)
	}
	slow.Poll(3)
	if n, lo := retained(); n != 2 || lo != 4 {
		t.Fatalf("slow at 4, fast at 5: retained %d from %d, want 2 from 4", n, lo)
	}
	// The early consumer registers at its first read and resumes at the
	// oldest retained message (offset 4); from then on it gates the
	// topic as well.
	if m, ok := early.Next(); !ok || m.Offset != 4 {
		t.Fatalf("early consumer read %+v ok=%v, want offset 4", m, ok)
	}
	publish(4) // offsets 6..9
	fast.Poll(0)
	slow.Poll(0)
	if n, lo := retained(); n != 5 || lo != 5 {
		t.Fatalf("early at 5: retained %d from %d, want 5 from 5", n, lo)
	}
	early.Poll(0)
	if n, _ := retained(); n != 0 {
		t.Fatalf("all consumers drained: retained %d, want 0", n)
	}
}
