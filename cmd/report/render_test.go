package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dcm/internal/autotune"
	"dcm/internal/bench"
	"dcm/internal/degrade"
	"dcm/internal/experiments"
	"dcm/internal/policy"
	"dcm/internal/resilience"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>.golden, rewriting the file
// under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/report -run %s -update` to regenerate)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file %s.\ngot:\n%s\nwant:\n%s", t.Name(), path, got, want)
	}
}

// fig5Results runs the two Fig. 5 scenarios once (seed 42, audit and
// trace capture on — the same configuration cmd/report uses) and caches
// them for every golden test in the package.
var fig5Results = sync.OnceValues(func() ([]*experiments.ScenarioResult, error) {
	var results []*experiments.ScenarioResult
	for _, kind := range []experiments.ControllerKind{
		experiments.ControllerDCM,
		experiments.ControllerEC2,
	} {
		res, err := experiments.RunScenario(experiments.ScenarioConfig{
			Seed: 42, Kind: kind, CaptureTrace: true, Audit: true,
		})
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
})

func TestFig5SectionGolden(t *testing.T) {
	results, err := fig5Results()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig5-section", fig5Section(results...))
}

func TestScenarioDetailSectionGolden(t *testing.T) {
	results, err := fig5Results()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		golden(t, "detail-"+string(res.Kind), scenarioDetailSection(res))
	}
}

func TestAuditSectionGolden(t *testing.T) {
	results, err := fig5Results()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.DecisionLog() == nil {
			t.Fatalf("%s scenario captured no audit log", res.Kind)
		}
		golden(t, "audit-"+string(res.Kind), auditSection(res))
	}
	// Without an audit log the section disappears entirely.
	plain, err := experiments.RunScenario(experiments.ScenarioConfig{Seed: 42, Kind: experiments.ControllerDCM})
	if err != nil {
		t.Fatal(err)
	}
	if got := auditSection(plain); got != "" {
		t.Fatalf("auditSection without a log = %q, want empty", got)
	}
}

// TestAutotuneSectionGolden renders a fixture Pareto report (no search
// run — the section renderer is a pure function of the report) and also
// covers the loader's round trip and its unknown-field rejection.
func TestAutotuneSectionGolden(t *testing.T) {
	rules := policy.Default()
	rules.Name = "autotune:dcm:headroom=1.2,upperCPU=0.75"
	rep := &autotune.Report{
		Portfolio: []autotune.Scenario{{Name: "steady", SLOSec: 0.5, Seed: 42}},
		Budget:    4, Seeds: 1, Rounds: 1, Seed: 1,
		Controllers: []autotune.ControllerReport{{
			Controller: "dcm",
			Tunables: []autotune.Tunable{
				{Knob: "upperCPU", Min: 0.6, Max: 0.9, Steps: 3},
				{Knob: "headroom", Min: 0.8, Max: 1.6, Steps: 2},
			},
			Evaluated: 4,
			Frontier: []autotune.Point{{
				Candidate: autotune.Candidate{
					Values: map[string]float64{"upperCPU": 0.75, "headroom": 1.2},
					Rules:  rules,
				},
				Attainment:  0.875,
				ServerHours: 0.25,
			}},
		}},
	}
	golden(t, "autotune-section", autotuneSection(rep))

	// The loader round-trips the marshaled report...
	path := filepath.Join(t.TempDir(), "pareto.json")
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadAutotuneReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if autotuneSection(loaded) != autotuneSection(rep) {
		t.Fatal("loaded report renders differently")
	}
	// ...and rejects files that are not autotune reports.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"notAReport": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadAutotuneReport(bad); err == nil {
		t.Fatal("non-report JSON accepted")
	}
	two := filepath.Join(t.TempDir(), "two.json")
	if err := os.WriteFile(two, append(append(b, '\n'), b...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadAutotuneReport(two); err == nil {
		t.Fatal("report followed by a second document accepted")
	}
	if _, err := loadAutotuneReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBenchSectionGolden renders a fixture performance trajectory (the
// section is a pure function of the two suites — no benchmarks run).
func TestBenchSectionGolden(t *testing.T) {
	baseline := bench.Suite{Benchmarks: []bench.Result{
		{Name: "BenchmarkEngineScheduleFire", Iters: 22426521, NsPerOp: 96.13},
		{Name: "BenchmarkEngineScheduleFireMixed", Iters: 5934526, NsPerOp: 201.3},
		{Name: "BenchmarkEngineScheduleCancel", Iters: 12529615, NsPerOp: 185.0},
	}}
	current := bench.Suite{Benchmarks: []bench.Result{
		{Name: "BenchmarkEngineScheduleFire", Iters: 33398282, NsPerOp: 34.92},
		{Name: "BenchmarkEngineScheduleFireMixed", Iters: 15712684, NsPerOp: 66.48},
		{Name: "BenchmarkEngineScheduleCancel", Iters: 16381119, NsPerOp: 70.63},
		{Name: "BenchmarkDenseFaultSchedule", Iters: 1000, NsPerOp: 1.1e6},
	}}
	golden(t, "bench-section", benchSection(baseline, current, "BENCH_engine.baseline.json"))
}

// TestDegradationSectionGolden pins the Degradation section against the
// same default-calibrated runs cmd/report performs: the degrade rung of
// the retry-storm ladder and the flash crowd with the brownout armed.
func TestDegradationSectionGolden(t *testing.T) {
	storm, err := experiments.RunRetryStormVariant(
		experiments.RetryStormConfig{Seed: 42, Degrade: true},
		experiments.RetryStormDegradeVariant,
	)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := experiments.RunFlashCrowd(experiments.OpenLoopConfig{Seed: 42, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "degradation-section", degradationSection(storm, &fc))

	// Without degrade reports the section disappears entirely.
	if got := degradationSection(experiments.RetryStormResult{}, &experiments.OpenLoopResult{}); got != "" {
		t.Fatalf("degradationSection without reports = %q, want empty", got)
	}
}

// TestDetectorStrip pins the strip's bucketing and precedence: brownout
// beats unhealthy beats healthy within a bucket, and long timelines
// downsample with the chart's bucket arithmetic.
func TestDetectorStrip(t *testing.T) {
	tl := []degrade.TimelinePoint{
		{}, {Unhealthy: true}, {Unhealthy: true, Brownout: true}, {Brownout: true}, {},
	}
	if got := detectorStrip(tl, 0); got != ".!BB." {
		t.Errorf("strip = %q, want .!BB.", got)
	}
	// Width 2: buckets [0,2) and [2,5); the second holds a brownout tick.
	if got := detectorStrip(tl, 2); got != "!B" {
		t.Errorf("downsampled strip = %q, want !B", got)
	}
	if got := detectorStrip(nil, 10); got != "" {
		t.Errorf("empty strip = %q, want empty", got)
	}
}

// TestTopologySectionGolden pins the service-graph section against the
// same deterministic run cmd/report performs (RenderGraph excludes wall
// time, so the section is stable for a fixed seed).
func TestTopologySectionGolden(t *testing.T) {
	res, err := experiments.RunGraph(experiments.GraphConfig{
		Seed:        42,
		Rate:        80,
		Horizon:     40 * time.Second,
		Chaos:       true,
		Controllers: true,
		Invariants:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InvariantViolations) > 0 {
		t.Fatalf("graph run recorded %d invariant violation(s)", len(res.InvariantViolations))
	}
	golden(t, "topology-section", topologySection(res))
}

func TestResilienceSectionGolden(t *testing.T) {
	res, err := resilience.Preset("full", 0)
	if err != nil {
		t.Fatal(err)
	}
	var results []*experiments.ScenarioResult
	for _, kind := range []experiments.ControllerKind{
		experiments.ControllerDCM,
		experiments.ControllerEC2,
	} {
		r, err := experiments.RunScenario(experiments.ScenarioConfig{
			Seed: 42, Kind: kind, Resilience: res,
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	// A scaled-down ladder keeps the golden run fast while exercising the
	// same renderer as the full report.
	storm, err := experiments.RunRetryStorm(experiments.RetryStormConfig{
		Seed:       42,
		Users:      200,
		DegradeAt:  5 * time.Second,
		DegradeFor: 20 * time.Second,
		Horizon:    40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "resilience-section", resilienceSection(results, storm))
}
