package bus

import "testing"

// BenchmarkBusPublishNext measures one publish and one Next on a
// topic with one consumer, the graph's async-edge path: the read trims
// the message, so the ring reuses one slot and the cycle allocates
// nothing.
func BenchmarkBusPublishNext(b *testing.B) {
	bs := New()
	c := bs.NewConsumer("t")
	payload := new(int) // a pointer boxes into the interface for free
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Publish("t", "k", payload)
		if _, ok := c.Next(); !ok {
			b.Fatal("Next: nothing buffered")
		}
	}
}
