package graph

import (
	"testing"
	"time"

	"dcm/internal/model"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// benchDiamondSpec is the 4-node diamond BenchmarkGraphWalk drives: front
// fans out to svcA twice in parallel and calls svcB once, and both
// services make one pooled call to a shared db.
func benchDiamondSpec() Spec {
	law := model.Params{S0: 1e-4, Gamma: 1}
	return Spec{
		Name:  "bench-diamond",
		Entry: "front",
		Nodes: []NodeSpec{
			{Name: "front", Model: law, Threads: 64},
			{Name: "svcA", Model: law, Threads: 16},
			{Name: "svcB", Model: law, Threads: 16},
			{Name: "db", Model: law, Threads: 8},
		},
		Edges: []EdgeSpec{
			{From: "front", To: "svcA", Kind: EdgeParallel, Visits: 2},
			{From: "front", To: "svcB", Visits: 1},
			{From: "svcA", To: "db", Visits: 1, PoolSize: 8},
			{From: "svcB", To: "db", Visits: 1, PoolSize: 8},
		},
	}
}

// BenchmarkGraphWalk measures end-to-end request cost through a 4-node
// diamond — a parallel fan-out, a serial call and a pooled shared DB —
// covering the walker's branch/join/pool machinery. Reported ns/op is
// per completed request, queueing included.
func BenchmarkGraphWalk(b *testing.B) {
	spec := benchDiamondSpec()
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: spec})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	cb := func(time.Duration, bool) { done++ }
	// Warm the engine's arena so steady state is what gets measured.
	for i := 0; i < 100; i++ {
		app.Inject(cb)
	}
	horizon := time.Second
	if err := eng.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	goal := done + b.N
	for i := 0; i < b.N; i++ {
		app.Inject(cb)
	}
	for done < goal {
		horizon += time.Second
		if err := eng.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphWalkSteady is BenchmarkGraphWalk at a bounded in-flight
// count: 16 requests run through the diamond at a time, and each
// completion injects the next, so after warm-up every request record, hop
// frame, session and connection comes from a free list. BenchmarkGraphWalk
// injects its whole batch at once and so measures cold free lists; this
// rung measures the steady state. Reported ns/op is per completed request.
func BenchmarkGraphWalkSteady(b *testing.B) {
	const inFlight = 16
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: benchDiamondSpec()})
	if err != nil {
		b.Fatal(err)
	}
	done, goal, issued := 0, 0, 0
	var cb func(time.Duration, bool)
	cb = func(time.Duration, bool) {
		done++
		if issued < goal {
			issued++
			app.Inject(cb)
		}
	}
	horizon := time.Duration(0)
	run := func(n int) {
		goal += n
		for i := 0; i < inFlight && issued < goal; i++ {
			issued++
			app.Inject(cb)
		}
		for done < goal {
			horizon += time.Second
			if err := eng.Run(horizon); err != nil {
				b.Fatal(err)
			}
		}
	}
	run(1000) // warm the free lists and the engine's arena
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkGraphHop measures a single hop: one request through a one-node
// graph (thread grant, burst, release), run to completion before the next.
func BenchmarkGraphHop(b *testing.B) {
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: Spec{
		Name:  "hop",
		Entry: "node",
		Nodes: []NodeSpec{{Name: "node", Model: model.Params{S0: 1e-4, Gamma: 1}, Threads: 1}},
	}})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	cb := func(time.Duration, bool) { done++ }
	hop := func() {
		app.Inject(cb)
		if err := eng.Run(eng.Now() + time.Second); err != nil {
			b.Fatal(err)
		}
	}
	hop() // warm the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
	if done != b.N+1 {
		b.Fatalf("completed %d of %d hops", done, b.N+1)
	}
}
