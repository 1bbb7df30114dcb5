package bus

import "testing"

// BenchmarkBusPublishNext measures one publish and one Next on a
// retain-until-read topic, the graph's async-edge path: the read trims
// the message, so the ring reuses one slot and the cycle allocates
// nothing.
func BenchmarkBusPublishNext(b *testing.B) {
	bs := New()
	if err := bs.CreateTopic("t", RetainUntilRead); err != nil {
		b.Fatal(err)
	}
	c := bs.NewConsumer("t", 0)
	payload := new(int) // a pointer boxes into the interface for free
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.Publish("t", "k", payload); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := c.Next(); !ok || err != nil {
			b.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	}
}
