package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"dcm/internal/controller"
	"dcm/internal/experiments"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/ntier"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		ok       bool
		pct, val float64
	}{
		{n: 10},
		{n: 19},
		{n: 20, ok: true, pct: 50, val: 10},
		{n: 40, ok: true, pct: 75, val: 30},
		{n: 110, ok: true, pct: 90, val: 99},
		{n: 1000, ok: true, pct: 99, val: 990},
	} {
		pct, val, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || val != tc.val {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
	// Samples tied with the percentile's value are not beyond it: the
	// median of these 25 is 100, and nothing lies above it.
	xs := seq(10)
	for i := 0; i < 15; i++ {
		xs = append(xs, 100)
	}
	if pct, val, ok := tailPercentile(xs); ok {
		t.Errorf("tied tail: got p%g=%g, want no percentile", pct, val)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(2), 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", m)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", "dcm/internal/graph.(*App).walkEdges",
			"dcm/internal/sim.(*Engine).Run", "main.main"}, "graph"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"dcm/internal/ntier.(*App).Inject", "dcm/internal/workload.(*ClosedLoop).startRequest"}, "graph"},
		// Helper packages charge their caller.
		{[]string{"math.Exp", "dcm/internal/rng.(*Rand).Exp", "dcm/internal/workload.(*OpenLoopGen).scheduleGap"}, "workload"},
		{[]string{"dcm/internal/model.Params.ServiceTime", "dcm/internal/server.(*Server).burstDuration"}, "server"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "dcm/internal/controller.(*DCM).Evaluate"}, "control"},
		{[]string{"encoding/json.Marshal", "main.digest", "main.main"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// pb is a tiny protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
	return b
}

func (b *pb) bytesField(num int, data []byte) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
	return b
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestCPUByLayerDecodesProfile(t *testing.T) {
	var p pb
	// String table: "", then the function names.
	names := []string{"", "runtime.mallocgc", "dcm/internal/graph.(*App).walkEdges", "runtime.gcBgMarkWorker", "dcm/internal/sim.(*Engine).Run"}
	// Functions 1..4 name strings 1..4.
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.varint(1, id).varint(2, id)
		p.bytesField(5, f.Bytes())
	}
	// Location 1 inlines mallocgc into walkEdges (leaf first); location 2
	// is the GC worker; location 3 is the engine loop.
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(1, id)
		for _, fn := range fns {
			var line pb
			line.varint(1, fn)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	loc(1, 1, 2)
	loc(2, 3)
	loc(3, 4)
	// Samples: [count, cpu ns]; one packed, one with unpacked location ids.
	var s1 pb
	s1.bytesField(1, packed(1, 3)).bytesField(2, packed(3, 30_000_000))
	p.bytesField(2, s1.Bytes())
	var s2 pb
	s2.varint(1, 2).bytesField(2, packed(1, 10_000_000))
	p.bytesField(2, s2.Bytes())
	for _, n := range names {
		p.bytesField(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	got, err := cpuByLayer(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["graph"] != 30_000_000 || got["gc"] != 10_000_000 || len(got) != 2 {
		t.Fatalf("cpuByLayer = %v, want graph 30ms and gc 10ms", got)
	}
	sh := shares(got)
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if len(sh) != len(layers) || math.Abs(sum-1) > 1e-12 || sh["graph"] != 0.75 {
		t.Fatalf("shares = %v, want every layer listed, summing to 1, graph 0.75", sh)
	}
}

func TestDigestIgnoresWallClock(t *testing.T) {
	g := experiments.GraphResult{Topology: "fanout5", Completed: 5, Events: 40, Wall: time.Second}
	g2 := g
	g2.Wall = 3 * time.Second
	if digestOf(g) != digestOf(g2) {
		t.Error("graph digest depends on Wall")
	}
	g2.Completed++
	if digestOf(g) == digestOf(g2) {
		t.Error("graph digest ignores Completed")
	}

	m := experiments.MillionSmokeResult{Completed: 10, Events: 30, PeakPending: 7, Wall: time.Second, EventsPerSec: 30}
	m2 := m
	m2.Wall, m2.EventsPerSec, m2.Sweeps = 2*time.Second, 15, 5
	if digestOf(m) != digestOf(m2) {
		t.Error("million digest depends on Wall, EventsPerSec or Sweeps")
	}
	// The checker's sweep ticker moves the engine counters: the full digest
	// sees that, the statistics digest does not.
	m2.Events, m2.PeakPending = 34, 8
	if digestOf(m) == digestOf(m2) {
		t.Error("million digest ignores Events")
	}
	if statsDigest(m) != statsDigest(m2) {
		t.Error("statistics digest depends on the engine counters")
	}

	s := &experiments.ScenarioResult{Kind: experiments.ControllerDCM, TotalCompleted: 9}
	s2 := *s
	s2.Decisions = []controller.Decision{{At: time.Second}}
	if digestOf(s) != digestOf(&s2) {
		t.Error("scenario digest depends on the decision audit")
	}
	if s.Decisions != nil {
		t.Error("digest modified its argument")
	}
}

func consistentGraph() experiments.GraphResult {
	return experiments.GraphResult{
		Scheduled:    12,
		Completed:    8,
		Errors:       3,
		Dispositions: metrics.DispositionCounts{OK: 8, Rejected: 2, Shed: 1},
		Nodes: []experiments.GraphNodeRow{
			{Name: "gateway", Started: 12, InFlight: 1, Dispositions: metrics.DispositionCounts{OK: 8, Rejected: 2, Shed: 1}},
		},
		AsyncSpawned:  5,
		AsyncDone:     metrics.DispositionCounts{OK: 4},
		AsyncInFlight: 1,
	}
}

func TestConservationCatchesCorruptedCount(t *testing.T) {
	if err := checkGraph(consistentGraph()); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*experiments.GraphResult){
		"completed":   func(r *experiments.GraphResult) { r.Completed++ },
		"disposition": func(r *experiments.GraphResult) { r.Dispositions.Shed++ },
		"attempted":   func(r *experiments.GraphResult) { r.Scheduled = 10 },
		"node ledger": func(r *experiments.GraphResult) { r.Nodes[0].Started++ },
		"async":       func(r *experiments.GraphResult) { r.AsyncSpawned++ },
	} {
		r := consistentGraph()
		corrupt(&r)
		if checkGraph(r) == nil {
			t.Errorf("corrupted %s passed the conservation check", name)
		}
	}

	m := experiments.MillionSmokeResult{Completed: 10, Events: 30, PeakUsers: 100, PeakLive: 90}
	if err := checkMillion(m); err != nil {
		t.Fatalf("consistent smoke result rejected: %v", err)
	}
	m.Completed = 31
	if checkMillion(m) == nil {
		t.Error("smoke result completing more requests than events passed")
	}

	s := &experiments.ScenarioResult{TotalCompleted: 10, Seconds: []float64{1, 2},
		Throughput: []float64{4, 5}, MeanRTSec: []float64{0, 0}, P95RTSec: []float64{0, 0}}
	if err := checkScenario(s); err != nil {
		t.Fatalf("consistent scenario rejected: %v", err)
	}
	s.Throughput[1] = 7
	if checkScenario(s) == nil {
		t.Error("scenario whose per-second completions exceed the total passed")
	}
}

func TestSpecVisits(t *testing.T) {
	// fanout5: gateway 1, search 2 (parallel), catalog 1, audit 1 (async),
	// db 2*1 + 1*2 = 4, all four db calls pooled.
	sv, pooled := specVisits(experiments.Fanout5Spec())
	if sv != 9 || pooled != 4 {
		t.Errorf("fanout5 visits = %g server, %g pooled; want 9, 4", sv, pooled)
	}
	sv, pooled = specVisits(chainSpec(ntier.DefaultConfig()))
	if sv != 4 || pooled != 2 {
		t.Errorf("chain visits = %g server, %g pooled; want 4, 2", sv, pooled)
	}
}

func TestRungsRun(t *testing.T) {
	law := model.Params{S0: 1e-3, Gamma: 1}
	for name, fn := range map[string]func() (rung, error){
		"sim":       func() (rung, error) { return simRung(100, time.Millisecond, 1000) },
		"server":    func() (rung, error) { return serverRung(law, 4, 100) },
		"pool":      func() (rung, error) { return poolRung(2, 100) },
		"pool wait": func() (rung, error) { return poolWaitRung(2, 100) },
		"hop":       func() (rung, error) { return injectRung(hopApp(law, 4), 100) },
	} {
		r, err := fn()
		if err != nil || r.ns <= 0 {
			t.Errorf("%s rung: %+v, %v", name, r, err)
		}
	}
}

func TestControllerReplayDetectsMismatch(t *testing.T) {
	f, err := setupFig5(7, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.run(true)
	if err != nil {
		t.Fatal(err)
	}
	if out.check != nil || out.violations != 0 {
		t.Fatalf("fig5-dcm run: check %v, %d violations", out.check, out.violations)
	}
	if _, mismatches, err := replayController(out.decisions, 1); err != nil || mismatches != 0 {
		t.Fatalf("replay: %d mismatches, %v", mismatches, err)
	}
	bad := append([]controller.Decision(nil), out.decisions...)
	for i := range bad {
		if len(bad[i].Actions) > 0 {
			bad[i].Actions = nil
			break
		}
	}
	if _, mismatches, _ := replayController(bad, 1); mismatches == 0 {
		t.Error("replay missed a tampered decision")
	}
}
