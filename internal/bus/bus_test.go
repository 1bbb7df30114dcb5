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

// retentionModes are the three retention policies a topic can have;
// TestConsumerNextMatchesPoll runs over each.
var retentionModes = []struct {
	name   string
	retain int
}{
	{"unbounded", 0},
	{"bounded", 3},
	{"until-read", RetainUntilRead},
}

// TestOffsetsContiguousProperty: published offsets are dense and fetchable
// in order under every retention mode, with reads interleaved, and each
// mode retains exactly what it promises: everything, the newest retain
// messages, or what the consumer has not read.
func TestOffsetsContiguousProperty(t *testing.T) {
	t.Parallel()
	prop := func(countRaw, modeRaw, readRaw uint8) bool {
		count := int(countRaw%64) + 1
		retain := 0
		switch modeRaw % 3 {
		case 1:
			retain = int(modeRaw/3%15) + 1
		case 2:
			retain = RetainUntilRead
		}
		b := New()
		if err := b.CreateTopic("t", retain); err != nil {
			return false
		}
		c := b.NewConsumer("t", 0)
		read := 0
		for i := 0; i < count; i++ {
			off, err := b.Publish("t", "", i)
			if err != nil || off != int64(i) {
				return false
			}
			// readRaw's bits pick which publishes a read follows.
			if readRaw>>(i%8)&1 == 1 {
				if _, ok, err := c.Next(); ok && err == nil {
					read++
				}
			}
		}
		msgs, err := b.Fetch("t", 0, 0)
		if err != nil || len(msgs) == 0 && retain != RetainUntilRead {
			return false
		}
		for i, m := range msgs {
			if m.Offset != int64(count-len(msgs)+i) || m.Value != int(m.Offset) {
				return false
			}
		}
		want := count
		switch {
		case retain > 0:
			want = min(count, retain)
		case retain == RetainUntilRead:
			want = count - int(c.Offset())
		}
		return len(msgs) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConsumerNextMatchesPoll drives two consumers over one topic, one by
// Next and one by Poll(1), under each retention mode. Publishes come in
// varying bursts, so on the bounded topic some reads fall behind the
// three-message horizon. Every read must return the same message and
// leave both consumers at the same offset, and Next must allocate
// nothing. Neither the test nor its modes run in parallel, so no other
// test's allocations reach the allocation count.
func TestConsumerNextMatchesPoll(t *testing.T) {
	for _, mode := range retentionModes {
		t.Run(mode.name, func(t *testing.T) {
			b := New()
			if err := b.CreateTopic("m", mode.retain); err != nil {
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
			if bounded := mode.retain > 0; skipped != bounded {
				t.Fatalf("a read fell behind the horizon: %v, want %v", skipped, bounded)
			}
			if next.Offset() != b.EndOffset("m") {
				t.Fatalf("Next consumer at %d, topic end %d", next.Offset(), b.EndOffset("m"))
			}
			if _, ok, err := b.NewConsumer("absent", 0).Next(); ok || err != nil {
				t.Fatalf("unknown topic: ok=%v err=%v, want nothing", ok, err)
			}
			allRetain := mode.retain
			if allRetain > 0 {
				allRetain = 200 // room for every read below
			}
			if err := b.CreateTopic("all", allRetain); err != nil {
				t.Fatal(err)
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
		})
	}
}

// TestRingWrapsUnderRetention publishes far past a bounded topic's
// retention and keeps a until-read topic's consumer a few messages
// behind, so both rings wrap many times without growing. Offsets stay
// contiguous, and Fetch and Poll read in order across the seam.
func TestRingWrapsUnderRetention(t *testing.T) {
	t.Parallel()
	b := New()
	if err := b.CreateTopic("bounded", 5); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("lagged", RetainUntilRead); err != nil {
		t.Fatal(err)
	}
	lagged := b.NewConsumer("lagged", 0)
	poller := b.NewConsumer("bounded", 0)
	const total = 100
	nextPoll := int64(0)
	for i := 0; i < total; i++ {
		for _, topic := range []string{"bounded", "lagged"} {
			if off, err := b.Publish(topic, "", i); err != nil || off != int64(i) {
				t.Fatalf("%s publish %d: offset %d, err %v", topic, i, off, err)
			}
		}
		// The lagged consumer reads one message every other publish
		// until it is three behind, then keeps pace.
		if i%2 == 0 || b.EndOffset("lagged")-lagged.Offset() > 3 {
			if m, ok, err := lagged.Next(); !ok || err != nil || m.Value != int(m.Offset) {
				t.Fatalf("lagged read after %d: %+v ok=%v err=%v", i, m, ok, err)
			}
		}
		for topic, lo := range map[string]int64{
			"bounded": max(0, int64(i)-4),
			"lagged":  lagged.Offset(),
		} {
			msgs, err := b.Fetch(topic, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(msgs)) != int64(i)+1-lo {
				t.Fatalf("%s after %d: retained %d, want %d", topic, i, len(msgs), int64(i)+1-lo)
			}
			for j, m := range msgs {
				if m.Offset != lo+int64(j) || m.Value != int(m.Offset) {
					t.Fatalf("%s after %d: message %d is %+v, want offset %d", topic, i, j, m, lo+int64(j))
				}
			}
			// A limited fetch from the middle crosses the seam too.
			if len(msgs) >= 3 {
				mid, err := b.Fetch(topic, lo+1, 2)
				if err != nil || len(mid) != 2 || mid[0] != msgs[1] || mid[1] != msgs[2] {
					t.Fatalf("%s after %d: Fetch(%d, 2) = %+v, %v", topic, i, lo+1, mid, err)
				}
			}
		}
		// Poll the bounded topic in batches of three; when it falls
		// behind the horizon it resumes at the oldest retained message.
		if i%7 == 6 {
			msgs, err := poller.Poll(3)
			if err != nil || len(msgs) != 3 {
				t.Fatalf("poll after %d: %d messages, err %v", i, len(msgs), err)
			}
			first := max(nextPoll, int64(i)-4)
			for j, m := range msgs {
				if m.Offset != first+int64(j) || m.Value != int(m.Offset) {
					t.Fatalf("poll after %d: message %d is %+v, want offset %d", i, j, m, first+int64(j))
				}
			}
			nextPoll = poller.Offset()
		}
	}
	if got := b.ringLen("bounded"); got != 8 {
		t.Fatalf("bounded ring grew to %d slots, want 8 for retention 5", got)
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
	if err := b.CreateTopic("q", RetainUntilRead); err != nil {
		t.Fatal(err)
	}
	publish := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := b.Publish("q", "", i); err != nil {
				t.Fatal(err)
			}
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
		if _, ok, err := fast.Next(); !ok || err != nil {
			t.Fatalf("fast read %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, _ := slow.Next(); !ok {
		t.Fatal("slow read failed")
	}
	if n, lo := retained(); n != 5 || lo != 1 {
		t.Fatalf("slow consumer at 1: retained %d from %d, want 5 from 1", n, lo)
	}
	if _, err := slow.Poll(3); err != nil {
		t.Fatal(err)
	}
	if n, lo := retained(); n != 2 || lo != 4 {
		t.Fatalf("slow at 4, fast at 5: retained %d from %d, want 2 from 4", n, lo)
	}
	// The early consumer registers at its first read and resumes at the
	// oldest retained message (offset 4); from then on it gates the
	// topic as well.
	if m, ok, _ := early.Next(); !ok || m.Offset != 4 {
		t.Fatalf("early consumer read %+v ok=%v, want offset 4", m, ok)
	}
	publish(4) // offsets 6..9
	if _, err := fast.Poll(0); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Poll(0); err != nil {
		t.Fatal(err)
	}
	if n, lo := retained(); n != 5 || lo != 5 {
		t.Fatalf("early at 5: retained %d from %d, want 5 from 5", n, lo)
	}
	if _, err := early.Poll(0); err != nil {
		t.Fatal(err)
	}
	if n, _ := retained(); n != 0 {
		t.Fatalf("all consumers drained: retained %d, want 0", n)
	}
	// Loosening the topic to unbounded stops the trimming.
	if err := b.CreateTopic("q", 0); err != nil {
		t.Fatal(err)
	}
	publish(3)
	if _, err := fast.Poll(0); err != nil {
		t.Fatal(err)
	}
	if n, _ := retained(); n != 3 {
		t.Fatalf("unbounded again: retained %d, want 3", n)
	}
}
