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
		off, err := b.Publish("metrics", "vm1", i)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
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
		if _, err := b.Publish("t", "", i); err != nil {
			t.Fatal(err)
		}
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
	if _, err := b.Publish("t", "", 1); err != nil {
		t.Fatal(err)
	}
	msgs, err := b.Fetch("t", 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("got %d messages past end", len(msgs))
	}
}

func TestRetention(t *testing.T) {
	t.Parallel()
	b := New()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Publish("t", "", i); err != nil {
			t.Fatal(err)
		}
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

func TestCreateTopicTightensRetention(t *testing.T) {
	t.Parallel()
	b := New()
	for i := 0; i < 10; i++ {
		if _, err := b.Publish("t", "", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
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
	if _, err := b.Publish("a", "", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("b", 0); err != nil {
		t.Fatal(err)
	}
	names := b.Topics()
	if len(names) != 2 {
		t.Fatalf("Topics = %v", names)
	}
}

func TestClose(t *testing.T) {
	t.Parallel()
	b := New()
	b.Close()
	if _, err := b.Publish("t", "", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish err = %v", err)
	}
	if _, err := b.Fetch("t", 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Fetch err = %v", err)
	}
	if err := b.CreateTopic("t", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTopic err = %v", err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	t.Parallel()
	var b Bus
	if _, err := b.Publish("t", "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestConsumerPoll(t *testing.T) {
	t.Parallel()
	b := New()
	c := b.NewConsumer("m", 0)
	// Unknown topic: nothing, no error.
	msgs, err := c.Poll(0)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("poll empty: %v, %v", msgs, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Publish("m", "", i); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err = c.Poll(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[2].Offset != 2 {
		t.Fatalf("first poll = %+v", msgs)
	}
	msgs, err = c.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
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
		if _, err := b.Publish("m", "", i); err != nil {
			t.Fatal(err)
		}
	}
	c := b.NewConsumer("m", b.EndOffset("m"))
	msgs, err := c.Poll(0)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("tail consumer read old messages: %v", msgs)
	}
	c.SeekTo(1)
	msgs, err = c.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("after seek: %d messages", len(msgs))
	}
	c.SeekTo(-5)
	if c.Offset() != 0 {
		t.Fatalf("negative seek not clamped: %d", c.Offset())
	}
}

func TestConsumerSurvivesRetention(t *testing.T) {
	t.Parallel()
	b := New()
	if err := b.CreateTopic("m", 2); err != nil {
		t.Fatal(err)
	}
	c := b.NewConsumer("m", 0)
	for i := 0; i < 10; i++ {
		if _, err := b.Publish("m", "", i); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := c.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
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
				if _, err := b.Publish("t", "", i); err != nil {
					t.Error(err)
					return
				}
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
			msgs, err := c.Poll(0)
			if err != nil {
				t.Error(err)
				break
			}
			seen += len(msgs)
		}
		done <- seen
	}()
	for i := 0; i < total; i++ {
		if _, err := b.Publish("t", "", i); err != nil {
			t.Fatal(err)
		}
	}
	if seen := <-done; seen != total {
		t.Fatalf("consumer saw %d of %d", seen, total)
	}
}

// TestOffsetsContiguousProperty: published offsets are dense and fetchable
// in order regardless of retention configuration.
func TestOffsetsContiguousProperty(t *testing.T) {
	t.Parallel()
	prop := func(countRaw, retainRaw uint8) bool {
		count := int(countRaw%64) + 1
		retain := int(retainRaw % 16)
		b := New()
		if err := b.CreateTopic("t", retain); err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			off, err := b.Publish("t", "", i)
			if err != nil || off != int64(i) {
				return false
			}
		}
		msgs, err := b.Fetch("t", 0, 0)
		if err != nil {
			return false
		}
		for i := 1; i < len(msgs); i++ {
			if msgs[i].Offset != msgs[i-1].Offset+1 {
				return false
			}
		}
		if retain > 0 && len(msgs) > retain {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConsumerNextMatchesPoll drives two consumers over one topic with a
// retention limit, one by Next and one by Poll(1), interleaving publishes
// that push both past the retention horizon: every read must return the
// same message and leave both at the same offset, and Next must allocate
// nothing.
func TestConsumerNextMatchesPoll(t *testing.T) {
	t.Parallel()
	b := New()
	if err := b.CreateTopic("m", 3); err != nil {
		t.Fatal(err)
	}
	next, poll := b.NewConsumer("m", 0), b.NewConsumer("m", 0)
	skipped := false // some read fell behind the horizon
	check := func(step string) {
		t.Helper()
		from := next.Offset()
		got, ok, err := next.Next()
		if err != nil {
			t.Fatalf("%s: Next: %v", step, err)
		}
		msgs, err := poll.Poll(1)
		if err != nil {
			t.Fatalf("%s: Poll: %v", step, err)
		}
		if ok != (len(msgs) == 1) {
			t.Fatalf("%s: Next ok=%v, Poll returned %d messages", step, ok, len(msgs))
		}
		if ok && got != msgs[0] {
			t.Fatalf("%s: Next = %+v, Poll = %+v", step, got, msgs[0])
		}
		skipped = skipped || (ok && got.Offset > from)
		if next.Offset() != poll.Offset() {
			t.Fatalf("%s: offsets Next %d, Poll %d", step, next.Offset(), poll.Offset())
		}
	}
	check("empty topic")
	for i := 0; i < 20; i++ {
		// Publish a varying burst so some reads fall behind the
		// three-message horizon and some catch up to the end.
		for j := 0; j < i%5; j++ {
			if _, err := b.Publish("m", "k", i*10+j); err != nil {
				t.Fatal(err)
			}
		}
		check("read")
		check("read again")
	}
	for next.Offset() < b.EndOffset("m") {
		check("drain")
	}
	check("drained")
	if !skipped {
		t.Fatal("no read fell behind the retention horizon; the test lost its point")
	}
	if next.Offset() != b.EndOffset("m") {
		t.Fatalf("Next consumer at %d, topic end %d", next.Offset(), b.EndOffset("m"))
	}
	if _, ok, err := b.NewConsumer("absent", 0).Next(); ok || err != nil {
		t.Fatalf("unknown topic: ok=%v err=%v, want nothing", ok, err)
	}
	for i := 0; i < 200; i++ {
		if _, err := b.Publish("all", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	all := b.NewConsumer("all", 0)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := all.Next(); !ok || err != nil {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocates %.1f/op, want 0", allocs)
	}
	b.Close()
	if _, _, err := next.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next on closed bus: %v, want ErrClosed", err)
	}
}
