package experiments

import (
	"os"
	"runtime"
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/lb"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/workload"
)

// TestBoundedMemorySoak drives 10^6 requests through the fanout5 DAG
// (joins, pooled edges, the async audit edge, full resilience) and
// requires the live heap at 10^6 requests to be within 10% of the live
// heap at 10^5: a run's memory is O(in flight), not O(requests). The live
// heap is HeapAlloc after a collection. HeapInuse is logged but not
// gated: this heap is under 1 MB, and the partly filled spans HeapInuse
// also counts move it by ~10% between two points with the same live
// bytes. A flash
// crowd early in the run pushes the in-flight population to the ceiling
// the resilience deadlines allow, so every free list reaches its high
// water before the first measurement. A monitor-cadence sampler drains
// the app's and every member's interval windows each second, as the
// monitoring agents do, and the search node loses its member halfway and
// gets a replacement 30 s later. The app is driven directly rather than
// through RunGraph, which keeps its response-time window whole for exact
// whole-run quantiles.
//
// It takes several seconds, so it runs only with DCM_SOAK=1:
//
//	DCM_SOAK=1 go test -run '^TestBoundedMemorySoak$' -v ./internal/experiments/
func TestBoundedMemorySoak(t *testing.T) {
	if os.Getenv("DCM_SOAK") == "" {
		t.Skip("set DCM_SOAK=1 to run the 10^6-request soak")
	}
	const (
		early   = 100_000
		late    = 1_000_000
		monitor = time.Second
	)
	eng := sim.NewEngine()
	root := rng.New(42)
	res, err := resilience.Preset("full", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	app, err := graph.New(eng, root.Split("graph"), graph.Config{
		Spec:       Fanout5Spec(),
		Policy:     lb.LeastConnections,
		Resilience: *res,
	})
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	wspec := workload.WorkloadSpec{
		Name: "soak",
		Kind: workload.KindOpen,
		Arrivals: &workload.RateSpec{
			Curve:       workload.CurveFlashCrowd,
			Rate:        300, // below the DAG's saturation
			PeakRate:    1200,
			AtSeconds:   20,
			RampSeconds: 10,
			HoldSeconds: 30,
		},
	}
	gen, err := wspec.Build(eng, root.Split("wl"), app)
	if err != nil {
		t.Fatal(err)
	}
	ol := gen.(*workload.OpenLoopGen)

	eng.Ticker(monitor, func() {
		app.TakeStats()
		for _, name := range app.NodeNames() {
			for _, m := range app.Members(name) {
				m.Server().TakeSample()
				if p := m.Pool(); p != nil {
					p.TakeSample()
				}
			}
		}
	})
	crashed := false
	crash := func() {
		ms := app.Members("search")
		if err := app.FailMember("search", ms[len(ms)-1].Name()); err != nil {
			t.Fatalf("crash: %v", err)
		}
		eng.Schedule(30*time.Second, func() {
			if _, err := app.AddMember("search", ""); err != nil {
				t.Errorf("replacement: %v", err)
			}
		})
		crashed = true
	}
	// heapAt runs the clock in monitor periods until requests have
	// arrived, crashing the search member on the way past the midpoint,
	// and returns the live heap after a collection.
	heapAt := func(requests uint64) uint64 {
		t.Helper()
		for ol.Scheduled() < requests {
			if err := eng.Run(eng.Now() + monitor); err != nil {
				t.Fatal(err)
			}
			if !crashed && ol.Scheduled() >= (early+late)/2 {
				crash()
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.Logf("%d requests at %v, %d events: HeapInuse %d B, HeapAlloc %d B",
			ol.Scheduled(), eng.Now(), eng.Processed(), ms.HeapInuse, ms.HeapAlloc)
		return ms.HeapAlloc
	}
	ol.Start()
	h1 := heapAt(early)
	h2 := heapAt(late)
	ol.Stop()

	if !crashed {
		t.Fatal("the search member never crashed")
	}
	spawned, done, _ := app.AsyncLedger()
	if d := app.Dispositions(); d.OK < late/2 || done.OK < late/2 || spawned < late/2 {
		t.Fatalf("soak did not carry steady traffic: dispositions %+v, async spawned %d done %+v",
			d, spawned, done)
	}
	if ratio := float64(h2) / float64(h1); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("live heap %d B at %d requests vs %d B at %d (ratio %.3f), want within 10%%",
			h2, late, h1, early, ratio)
	}
	app.CheckInvariants()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("%d invariant violation(s):\n%s", len(vs), invariant.Render(vs))
	}
}
