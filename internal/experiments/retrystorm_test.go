package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/resilience"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

// TestRetryStormGoodputOrdering is the experiment's acceptance criterion:
// under one seed, goodput strictly climbs the resilience ladder —
// no resilience < retries-only < retries+breakers+admission. The margins
// are wide (the probe sweep saw none ≈ 27/s, retries ≈ 258/s,
// full ≈ 284/s across seeds), so this asserts ordering, not exact values.
func TestRetryStormGoodputOrdering(t *testing.T) {
	t.Parallel()
	results, err := RunRetryStorm(RetryStormConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	none, retries, full := results[0], results[1], results[2]
	if none.Variant != "none" || retries.Variant != "retries" || full.Variant != "full" {
		t.Fatalf("ladder order wrong: %s %s %s", none.Variant, retries.Variant, full.Variant)
	}
	if !(none.Goodput < retries.Goodput) {
		t.Errorf("goodput: none %d !< retries %d", none.Goodput, retries.Goodput)
	}
	if !(retries.Goodput < full.Goodput) {
		t.Errorf("goodput: retries %d !< full %d", retries.Goodput, full.Goodput)
	}
	// The baseline has zero data-plane features: nothing times out,
	// nothing retries — its goodput is low purely because completions
	// blow the SLA.
	if none.Retries != 0 || none.Dispositions.Failed() != 0 {
		t.Errorf("baseline saw data-plane dispositions: %+v", none)
	}
	// The retries rung is the storm: deadlines produce timeouts and the
	// unbudgeted retrier amplifies them into a large retry volume.
	if retries.Retries == 0 || retries.Dispositions.TimedOut == 0 {
		t.Errorf("retries rung produced no storm: %+v", retries)
	}
	// The full rung's retry budget suppresses most of that volume.
	if full.Retries == 0 || full.Retries >= retries.Retries/2 {
		t.Errorf("retry budget did not bite: full %d vs retries %d", full.Retries, retries.Retries)
	}
	// And its admission layer actually engaged.
	if full.Dispositions.Shed == 0 {
		t.Errorf("full rung never shed: %+v", full.Dispositions)
	}
}

// TestRetryStormDeterministic re-runs the full rung — deadlines, jittered
// retries, breakers and shedding all active — under one seed and demands
// byte-identical results: the resilience layer must draw all randomness
// from the scenario's splittable rng, never from global state.
func TestRetryStormDeterministic(t *testing.T) {
	t.Parallel()
	cfg := RetryStormConfig{Seed: 42, Horizon: 60 * time.Second, DegradeFor: 30 * time.Second}
	a, err := RunRetryStormVariant(cfg, "full")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRetryStormVariant(cfg, "full")
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed diverged:\n%s\n%s", ja, jb)
	}
	if a.Retries == 0 {
		t.Fatal("determinism run exercised no retries")
	}
}

// TestDeadlinePropagation is the deadline-propagation invariant: with a
// per-request timeout, no traced request has any recorded activity — tier
// hops, pool grants, service bursts, its own completion — after
// arrive + timeout. In particular a timed-out request cannot still be
// holding (or later acquire) a MySQL connection, which is the failure
// mode request deadlines exist to prevent.
func TestDeadlinePropagation(t *testing.T) {
	t.Parallel()
	const timeout = 200 * time.Millisecond
	res, err := RunScenario(ScenarioConfig{
		Seed: 11,
		Kind: ControllerNone,
		Bursty: &workload.BurstyConfig{
			Users: 300, NormalThink: 100 * time.Millisecond, SurgeThink: 20 * time.Millisecond,
			NormalDwell: 5 * time.Second, SurgeDwell: 5 * time.Second,
		},
		Horizon: 40 * time.Second,
		Chaos: &chaos.Schedule{Name: "degrade", Faults: []chaos.Fault{{
			Kind: chaos.KindDegrade, At: 5 * time.Second, Duration: 30 * time.Second,
			Tier: ntier.TierApp, Factor: 30,
		}}},
		Resilience:   &resilience.Config{RequestTimeout: timeout},
		CaptureTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispositions == nil || res.Dispositions.TimedOut == 0 {
		t.Fatalf("scenario produced no timeouts: %+v", res.Dispositions)
	}
	arrive := map[uint64]time.Duration{}
	checked := 0
	for _, ev := range tracedEvents(t, res.RequestTracer()) {
		if ev.Kind == trace.EventArrive {
			arrive[ev.Req] = ev.At
			continue
		}
		at, ok := arrive[ev.Req]
		if !ok {
			continue // cut off by the event limit
		}
		checked++
		if ev.At > at+timeout {
			t.Fatalf("request %d: %s at %v, %v past its deadline (arrived %v)",
				ev.Req, ev.Kind, ev.At, ev.At-(at+timeout), at)
		}
	}
	if checked == 0 {
		t.Fatal("no traced events to check")
	}
	_ = metrics.DispositionTimeout
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
