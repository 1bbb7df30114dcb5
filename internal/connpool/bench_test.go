package connpool

import (
	"testing"

	"dcm/internal/metrics"
	"dcm/internal/sim"
)

// BenchmarkConnpoolCycle measures one uncontended acquisition: the pool
// has a free connection, AcquireDeadline grants it at once and the
// callback releases it.
func BenchmarkConnpoolCycle(b *testing.B) {
	p, err := New(sim.NewEngine(), "bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	release := func(c *Conn, _ metrics.Disposition) { c.Release() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AcquireDeadline(0, 0, release)
	}
	if p.InUse() != 0 {
		b.Fatalf("%d connections left held", p.InUse())
	}
}

// BenchmarkConnpoolWaitCycle measures one acquisition through the waiter
// queue: the pool's only connection is held, the acquisition queues
// behind it, and releasing the held connection grants it, making it the
// held one for the next cycle.
func BenchmarkConnpoolWaitCycle(b *testing.B) {
	p, err := New(sim.NewEngine(), "bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	var held *Conn
	hold := func(c *Conn, _ metrics.Disposition) { held = c }
	p.AcquireDeadline(0, 0, hold)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := held
		p.AcquireDeadline(0, 0, hold)
		prev.Release()
	}
	if held == nil || p.InUse() != 1 || p.Waiting() != 0 {
		b.Fatalf("held %d, waiting %d after the cycles", p.InUse(), p.Waiting())
	}
}
