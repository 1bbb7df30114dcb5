package graph

import (
	"encoding/json"
	"testing"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/model"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// fuzzCursor doles out fuzz bytes, yielding zeros once exhausted so every
// input decodes to a complete (deterministic) topology.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

// fuzzKill crashes the first member of node index node at time at; node
// 0 (the entry) means no crash.
type fuzzKill struct {
	node int
	at   time.Duration
}

// decodeTopology turns a byte stream into a valid-by-construction DAG
// spec plus a resilience config, an injection count and a crash. Nodes are
// generated in topological order and node i > 0 always receives an
// in-edge from an earlier node, so acyclicity and reachability hold by
// construction; Validate acceptance is asserted by the fuzzer, not
// assumed. Layout (one byte each, in order):
//
//	nodeCount, resilienceMode,
//	then per node: threads, model, kind, cacheParam,
//	then per node i >= 1: parent, edgeKind, visits, poolSize,
//	then: extraEdges, then per extra edge: src, dst, kind, visits, pool,
//	then: injectCount, then: kill.
//
// A non-zero kill byte crashes one member of a non-entry node at a time
// within the first 32 ms; zero, or an input that ends before it, crashes
// nothing.
func decodeTopology(data []byte) (Spec, resilience.Config, int, fuzzKill) {
	c := &fuzzCursor{data: data}
	n := 2 + int(c.next()%5)
	var res resilience.Config
	switch c.next() % 3 {
	case 1:
		res = resilience.Config{RequestTimeout: 200 * time.Millisecond, MaxQueue: 8}
	case 2:
		res = resilience.Config{RequestTimeout: 100 * time.Millisecond}
	}

	spec := Spec{Name: "fuzz", Entry: "n0"}
	for i := 0; i < n; i++ {
		threads := 1 + int(c.next()%8)
		mb := c.next()
		m := model.Params{
			S0:    float64(1+mb%50) * 1e-4,
			Alpha: float64(mb%80) / 100 * float64(1+mb%50) * 1e-5,
			Beta:  1e-8 * float64(1+mb%100),
			Gamma: 1,
		}
		ns := NodeSpec{Name: nodeName(i), Model: m, Threads: threads}
		kind := c.next()
		cacheParam := c.next()
		if i > 0 && kind%4 == 0 {
			ns.Kind = KindCache
			if cacheParam%2 == 0 {
				ns.HitRatio = float64(cacheParam) / 255
			} else {
				ns.CacheSize = 1 + int(cacheParam%8)
				ns.KeySpace = 8 + int(cacheParam%32)
			}
		}
		spec.Nodes = append(spec.Nodes, ns)
	}

	seen := map[string]bool{}
	addEdge := func(e EdgeSpec) {
		if seen[e.key()] {
			return
		}
		seen[e.key()] = true
		spec.Edges = append(spec.Edges, e)
	}
	for i := 1; i < n; i++ {
		parent := int(c.next()) % i
		e := EdgeSpec{From: nodeName(parent), To: nodeName(i)}
		switch c.next() % 3 {
		case 1:
			e.Kind = EdgeParallel
		case 2:
			e.Kind = EdgeAsync
		}
		e.Visits = 1 + int(c.next()%3)
		pool := int(c.next() % 3)
		if e.Kind != EdgeAsync {
			e.PoolSize = pool
		}
		addEdge(e)
	}
	extra := int(c.next() % 4)
	for i := 0; i < extra; i++ {
		// Extra edges always point forward and never into the entry.
		dst := 1 + int(c.next())%(n-1)
		src := int(c.next()) % dst
		e := EdgeSpec{From: nodeName(src), To: nodeName(dst)}
		switch c.next() % 3 {
		case 1:
			e.Kind = EdgeParallel
		case 2:
			e.Kind = EdgeAsync
		}
		e.Visits = int(c.next() % 3) // 0 is legal: a disabled edge
		pool := int(c.next() % 3)
		if e.Kind != EdgeAsync {
			e.PoolSize = pool
		}
		addEdge(e)
	}
	inject := 1 + int(c.next()%15)
	var kill fuzzKill
	if b := c.next(); b != 0 {
		kill = fuzzKill{node: 1 + int(b)%(n-1), at: time.Duration(b>>3) * time.Millisecond}
	}
	return spec, res, inject, kill
}

func nodeName(i int) string { return string(rune('n')) + string(rune('0'+i)) }

// FuzzTopology generates bounded random DAG topologies from the fuzz
// input, runs a short scenario against each, and fails on any validation
// surprise, JSON round-trip drift or invariant violation. The seeds cover
// the four structural shapes (chain, diamond, cache tier, async edge) and
// that diamond with its pooled leaf crashing mid-run.
func FuzzTopology(f *testing.F) {
	// chain: 3 serial nodes, the last pooled.
	f.Add([]byte{1, 0, 4, 10, 1, 0, 4, 10, 1, 0, 4, 10, 1, 0, 0, 0, 1, 1, 1, 0, 1, 2, 0, 9})
	// diamond: entry fans out serial+parallel, both sides rejoin at n3.
	f.Add([]byte{2, 1, 4, 20, 1, 0, 3, 9, 1, 0, 3, 9, 1, 0, 2, 30, 1, 0,
		0, 0, 1, 1, 0, 1, 2, 0, 1, 1, 1, 2, 1, 3, 0, 0, 1, 0, 7})
	// cache: n1 is a fixed-ratio cache in front of n2.
	f.Add([]byte{1, 0, 4, 10, 1, 0, 4, 10, 0, 128, 4, 10, 1, 0, 0, 0, 2, 1, 1, 0, 2, 0, 0, 5})
	// async: a fire-and-forget edge off the entry.
	f.Add([]byte{0, 0, 4, 10, 1, 0, 2, 10, 1, 0, 0, 2, 2, 0, 0, 3})
	// the diamond with a crash: 15 requests, then n3, behind a pooled
	// parallel edge, dies at 5 ms with 13 of them in flight.
	f.Add([]byte{2, 1, 4, 20, 1, 0, 3, 9, 1, 0, 3, 9, 1, 0, 2, 30, 1, 0,
		0, 0, 1, 1, 0, 1, 2, 0, 1, 1, 1, 2, 1, 3, 0, 0, 1, 0, 14, 41})

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, res, inject, kill := decodeTopology(data)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec failed validation: %v\nspec: %+v", err, spec)
		}
		// The spec must survive its own wire format.
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(raw); err != nil {
			t.Fatalf("marshalled spec rejected by strict parser: %v\n%s", err, raw)
		}

		eng := sim.NewEngine()
		app, err := New(eng, rng.New(1).Split("app"), Config{Spec: spec, Resilience: res})
		if err != nil {
			t.Fatalf("graph.New: %v\nspec: %+v", err, spec)
		}
		chk := invariant.New()
		app.SetInvariantChecker(chk)
		invariant.AttachEngine(chk, eng)
		for i := 0; i < inject; i++ {
			app.Inject(func(time.Duration, bool) {})
		}
		if kill.node > 0 {
			victim := nodeName(kill.node)
			eng.Schedule(kill.at, func() {
				if err := app.FailMember(victim, app.Members(victim)[0].Name()); err != nil {
					t.Error(err)
				}
			})
		}
		if err := eng.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		app.CheckInvariants()
		invariant.CheckEngine(chk, eng)
		if vs := chk.Violations(); len(vs) > 0 {
			t.Fatalf("%d invariant violation(s):\n%s\nspec: %+v",
				len(vs), invariant.Render(vs), spec)
		}
		// Everything injected must be accounted for at the horizon.
		d := app.Dispositions()
		if d.Total()+uint64(app.inFlight) != uint64(inject) {
			t.Fatalf("request leak: injected %d, dispositions %d, in flight %d",
				inject, d.Total(), app.inFlight)
		}
	})
}
