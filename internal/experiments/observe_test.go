package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dcm/internal/chaos"
	"dcm/internal/controller"
	"dcm/internal/ntier"
)

// TestScenarioObservabilityByteIdentical is the tentpole's acceptance
// check: turning on request tracing AND decision auditing must leave every
// simulation output byte-identical to the plain run — observability is
// pure recording.
func TestScenarioObservabilityByteIdentical(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	run := func(observed bool) *ScenarioResult {
		cfg := ScenarioConfig{Seed: 1234, Kind: ControllerDCM, Chaos: &sched}
		if observed {
			cfg.CaptureTrace = true
			cfg.Audit = true
		}
		res, err := RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, observed := run(false), run(true)

	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	checks := []struct {
		name string
		a, b any
	}{
		{"vm events", plain.VMEvents, observed.VMEvents},
		{"seconds", plain.Seconds, observed.Seconds},
		{"throughput", plain.Throughput, observed.Throughput},
		{"mean rt", plain.MeanRTSec, observed.MeanRTSec},
		{"errors", plain.Errors, observed.Errors},
		{"tier counts", plain.TierCounts, observed.TierCounts},
		{"actions", plain.Actions, observed.Actions},
		{"tier latency", plain.TierLatency, observed.TierLatency},
		{"chaos report", plain.Chaos, observed.Chaos},
	}
	for _, c := range checks {
		if !bytes.Equal(marshal(c.a), marshal(c.b)) {
			t.Errorf("%s differ between plain and observed runs", c.name)
		}
	}
	if plain.TotalCompleted != observed.TotalCompleted || plain.TotalErrors != observed.TotalErrors {
		t.Errorf("totals differ: %d/%d vs %d/%d",
			plain.TotalCompleted, plain.TotalErrors, observed.TotalCompleted, observed.TotalErrors)
	}

	// The plain run carries no observation artifacts; the observed run
	// carries both.
	if plain.RequestTracer() != nil || plain.DecisionLog() != nil ||
		plain.LatencyBreakdown != nil || plain.Decisions != nil {
		t.Fatal("plain run has observation artifacts")
	}
	if observed.RequestTracer() == nil || observed.DecisionLog() == nil {
		t.Fatal("observed run lost its artifacts")
	}
}

// TestScenarioAuditExplainsChaos checks the issue's acceptance criterion
// directly: in a chaos run with auditing on, every crash re-provisioning
// and every NoData hold appears in the decision log with its reason code.
func TestScenarioAuditExplainsChaos(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(ScenarioConfig{
		Seed:  77,
		Kind:  ControllerDCM,
		Chaos: &sched,
		Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 {
		t.Fatal("no decisions audited")
	}
	var reprovisions, nodataHolds int
	for _, d := range res.Decisions {
		for _, a := range d.Actions {
			if a.Code == "" {
				t.Fatalf("uncoded action at %v: %+v", d.At, a)
			}
			if a.Code == controller.CodeCrashReprovision {
				reprovisions++
			}
		}
		for _, h := range d.Holds {
			if h.Code == "" {
				t.Fatalf("uncoded hold at %v: %+v", d.At, h)
			}
			if h.Code == controller.CodeNoDataHold {
				nodataHolds++
			}
		}
	}
	// kitchen-sink crashes an app VM at 240 s and blacks out monitoring for
	// 45 s at 520 s: both must be visible as coded records.
	if reprovisions == 0 {
		t.Error("no crash-reprovision actions audited")
	}
	if nodataHolds == 0 {
		t.Error("no nodata holds audited")
	}
	// The system agent is one ticker, so the time axis strictly increases,
	// across the blackout too.
	for i := 1; i < len(res.Seconds); i++ {
		if res.Seconds[i] <= res.Seconds[i-1] {
			t.Fatalf("time axis not increasing at %d: %v after %v", i, res.Seconds[i], res.Seconds[i-1])
		}
	}
	// Each audited control period records the DCM planner's inputs.
	if d := res.Decisions[len(res.Decisions)-1]; d.TomcatModel == nil || d.MySQLModel == nil {
		t.Error("planner model snapshot missing from decisions")
	}
	if !strings.Contains(res.DecisionLog().RenderSummary(),
		string(controller.CodeCrashReprovision)) {
		t.Error("summary does not mention crash-reprovision")
	}
}

// TestScenarioTraceReconstructsBreakdown checks a full traced run yields a
// per-tier latency breakdown covering every tier, and the raw event log
// exports as JSONL.
func TestScenarioTraceReconstructsBreakdown(t *testing.T) {
	t.Parallel()
	res, err := RunScenario(ScenarioConfig{
		Seed:         5,
		Kind:         ControllerDCM,
		CaptureTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCompleted == 0 {
		t.Fatal("no requests completed")
	}
	byTier := map[string]bool{}
	for _, b := range res.LatencyBreakdown {
		byTier[b.Tier] = true
		if b.Requests == 0 || b.Service.Count == 0 {
			t.Errorf("tier %s breakdown empty: %+v", b.Tier, b)
		}
	}
	for _, tierName := range ntier.Tiers() {
		if !byTier[tierName] {
			t.Errorf("tier %s missing from breakdown", tierName)
		}
	}
	var buf bytes.Buffer
	if err := res.RequestTracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != res.RequestTracer().Len() {
		t.Fatalf("jsonl lines = %d, want %d", got, res.RequestTracer().Len())
	}
	// The always-on tier histograms are populated too, and the renderer
	// shows every tier.
	if len(res.TierLatency) != len(ntier.Tiers()) {
		t.Fatalf("tier latency entries = %d", len(res.TierLatency))
	}
	for _, s := range res.TierLatency {
		if s.ServiceCount == 0 {
			t.Errorf("tier %s has no service observations", s.Tier)
		}
	}
	out := RenderTierLatency(res)
	for _, tierName := range ntier.Tiers() {
		if !strings.Contains(out, tierName) {
			t.Errorf("render missing tier %s:\n%s", tierName, out)
		}
	}
}
