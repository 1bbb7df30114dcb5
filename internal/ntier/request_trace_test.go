package ntier

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// TestRequestTracerEndToEnd drives real requests through all three tiers
// with the tracer attached and checks the breakdown reconstructs per-tier
// spans: every tier appears, the app tier shows pool waits, and the
// request count matches the injected load.
func TestRequestTracerEndToEnd(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	tr := trace.NewRequestTracer(0)
	app.SetRequestTracer(tr)
	const n = 50
	completed := 0
	for i := 0; i < n; i++ {
		app.Inject(func(rt time.Duration, ok bool) {
			if ok {
				completed++
			}
		})
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if completed != n {
		t.Fatalf("completed = %d of %d", completed, n)
	}
	bd := tr.Breakdown()
	byTier := map[string]trace.TierBreakdown{}
	for _, b := range bd {
		byTier[b.Tier] = b
	}
	for _, tier := range Tiers() {
		b, ok := byTier[tier]
		if !ok {
			t.Fatalf("tier %s missing from breakdown (have %+v)", tier, bd)
		}
		if b.Requests != n {
			t.Errorf("tier %s saw %d requests, want %d", tier, b.Requests, n)
		}
		if b.Service.Count == 0 {
			t.Errorf("tier %s has no service spans", tier)
		}
	}
	if byTier[TierApp].PoolWait.Count != n*fastConfig().QueriesPerRequest {
		t.Errorf("app pool waits = %d, want %d",
			byTier[TierApp].PoolWait.Count, n*fastConfig().QueriesPerRequest)
	}
	if byTier[TierWeb].PoolWait.Count != 0 {
		t.Errorf("web tier has pool waits: %d", byTier[TierWeb].PoolWait.Count)
	}
}

// kinds returns the event kinds recorded for request req, in order.
func kinds(t *testing.T, tr *trace.RequestTracer, req uint64) []trace.EventKind {
	var out []trace.EventKind
	for _, ev := range tracedEvents(t, tr) {
		if ev.Req == req {
			out = append(out, ev.Kind)
		}
	}
	return out
}

// TestTraceFailedRequest: with the only database member failed, the
// traced request ends in a Fail event and never records Done.
func TestTraceFailedRequest(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	if err := app.FailMember(TierDB, "db-1"); err != nil {
		t.Fatal(err)
	}
	tr := trace.NewRequestTracer(0)
	app.SetRequestTracer(tr)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	got := kinds(t, tr, 1)
	if len(got) == 0 || got[len(got)-1] != trace.EventFail {
		t.Fatalf("events %v, want a trailing %s", got, trace.EventFail)
	}
	for _, k := range got {
		if k == trace.EventDone {
			t.Fatalf("failed request recorded %s: %v", trace.EventDone, got)
		}
	}
}

// TestTraceServletName: a weighted single-class config tags every traced
// request with its class name.
func TestTraceServletName(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{servlet("OnlyOne", 1, 1, 1, 1)}
	eng, app := newApp(t, cfg)
	tr := trace.NewRequestTracer(0)
	app.SetRequestTracer(tr)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	events := tracedEvents(t, tr)
	for _, ev := range events {
		if ev.Kind == trace.EventClass {
			if ev.Req != 1 || ev.Class != "OnlyOne" {
				t.Fatalf("class event %+v, want request 1 tagged OnlyOne", ev)
			}
			return
		}
	}
	t.Fatalf("no %s event in %v", trace.EventClass, events)
}

// TestTracingDoesNotPerturbSimulation is the unit-level determinism check
// behind the tentpole's "byte-identical with tracing on" requirement: the
// same seed with and without a tracer must complete the same requests in
// the same simulated time.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	t.Parallel()
	run := func(traced bool) (uint64, time.Duration) {
		eng := sim.NewEngine()
		cfg := fastConfig()
		cfg.NoiseSigma = 0.3 // exercise the rng path
		app, err := New(eng, rng.New(99).Split("app"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			app.SetRequestTracer(trace.NewRequestTracer(0))
		}
		for i := 0; i < 200; i++ {
			app.Inject(nil)
		}
		if err := eng.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return app.TotalCompletions(), eng.Now()
	}
	plainN, plainEnd := run(false)
	tracedN, tracedEnd := run(true)
	if plainN != tracedN || plainEnd != tracedEnd {
		t.Fatalf("tracing perturbed the run: %d@%v vs %d@%v",
			plainN, plainEnd, tracedN, tracedEnd)
	}
}

// TestTierHistogramsMergeMembers checks the always-on per-tier histograms:
// service times recorded on every member fold into one tier view, and the
// app tier exposes pool waits.
func TestTierHistogramsMergeMembers(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppServers = 2
	eng, app := newApp(t, cfg)
	for i := 0; i < 40; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	hs, err := app.NodeHistograms(TierApp)
	if err != nil {
		t.Fatal(err)
	}
	if hs.ServiceTime.Count() != 40 {
		t.Fatalf("app service bursts = %d, want 40", hs.ServiceTime.Count())
	}
	if hs.QueueDepth.Count() != 40 {
		t.Fatalf("app queue-depth observations = %d, want 40", hs.QueueDepth.Count())
	}
	if hs.PoolWait.Count() != uint64(40*cfg.QueriesPerRequest) {
		t.Fatalf("app pool waits = %d", hs.PoolWait.Count())
	}
	// Per-member counts must sum to the tier view.
	var sum uint64
	for _, m := range app.Members(TierApp) {
		sum += m.Server().ServiceTimeHistogram().Count()
	}
	if sum != hs.ServiceTime.Count() {
		t.Fatalf("member sum %d != tier %d", sum, hs.ServiceTime.Count())
	}
	web, err := app.NodeHistograms(TierWeb)
	if err != nil {
		t.Fatal(err)
	}
	if web.PoolWait != nil {
		t.Fatal("web tier has a pool-wait histogram")
	}
	if _, err := app.NodeHistograms("bogus"); err == nil {
		t.Fatal("unknown tier accepted")
	}
}

// TestDrainCompletesUnderConnLeak is the regression test for the
// scale-in hang: an unrepaired connection leak on an app member's pool
// must not keep StartDrain polling forever, because leaked connections
// are no longer counted as in use.
func TestDrainCompletesUnderConnLeak(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppServers = 2
	eng, app := newApp(t, cfg)
	victim := app.Members(TierApp)[1]
	// The leak consumes the whole pool and is never repaired.
	victim.Pool().Leak(cfg.DBConnsPerApp)
	drained := false
	if err := app.StartDrain(TierApp, victim.Name(), func() { drained = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("drain never completed under an unrepaired conn leak")
	}
	if err := app.RemoveMember(TierApp, victim.Name()); err != nil {
		t.Fatalf("remove after drain: %v", err)
	}
}

// tracedEvents returns the events tr recorded, in recording order, read
// back from its JSONL export.
func tracedEvents(t *testing.T, tr *trace.RequestTracer) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}
