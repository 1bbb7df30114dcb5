package conformance

import (
	"strings"
	"testing"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/experiments"
	"dcm/internal/invariant"
	"dcm/internal/resilience"
	"dcm/internal/trace"
)

// fuzzTraceCSV is the short bursty user trace every fuzzed scenario runs:
// 90 seconds with a ramp, a spike and a drain, enough to force scale-out
// and scale-in under whatever faults the fuzzer invents.
const fuzzTraceCSV = "0,200\n20,600\n40,1200\n60,500\n90,200\n"

// fuzzPresets is the resilience ladder the preset selector indexes into.
var fuzzPresets = []string{"off", "timeout", "retries", "full"}

// FuzzScenario feeds fuzzer-invented chaos schedules (as the strict JSON
// chaos.Parse accepts), seeds and resilience presets into full §V-B
// scenario runs with the invariant checker enabled. A structural-law
// violation — request conservation, pool accounting, event-time order,
// illegal breaker transitions — fails the input, and `go test -fuzz`
// then shrinks the schedule JSON to a minimal failing scenario.
//
// Invalid or oversized schedules are skipped rather than failed: the
// property under test is "every schedule the validator admits runs
// clean", not the validator itself.
func FuzzScenario(f *testing.F) {
	f.Add([]byte(`{"name":"crash","faults":[{"kind":"vm-crash","at":"30s","tier":"app"}]}`),
		uint64(1), uint64(0))
	f.Add([]byte(`{"name":"degrade","faults":[{"kind":"degraded-server","at":"25s","duration":"40s","tier":"app","factor":8}]}`),
		uint64(2), uint64(3))
	f.Add([]byte(`{"name":"leak-blackout","faults":[`+
		`{"kind":"conn-leak","at":"20s","duration":"30s","count":30},`+
		`{"kind":"monitor-blackout","at":"35s","duration":"20s"}]}`),
		uint64(3), uint64(1))
	f.Add([]byte(`{"name":"slow-boot","faults":[{"kind":"slow-boot","at":"10s","duration":"60s","factor":4}]}`),
		uint64(4), uint64(2))

	f.Fuzz(func(t *testing.T, data []byte, seed, preset uint64) {
		sched, err := chaos.Parse(data)
		if err != nil {
			t.Skip("invalid schedule")
		}
		// Clamp the scenario to a bounded run so one fuzz execution stays
		// cheap: few faults, all inside the 100-second horizon.
		if len(sched.Faults) > 6 {
			t.Skip("too many faults")
		}
		for _, fa := range sched.Faults {
			if fa.At > 90*time.Second || fa.Duration > 120*time.Second {
				t.Skip("fault outside the fuzz horizon")
			}
			if fa.Count > 1000 || fa.Factor > 1000 {
				t.Skip("degenerate magnitude")
			}
		}
		tr, err := trace.ParseCSV("fuzz", strings.NewReader(fuzzTraceCSV))
		if err != nil {
			t.Fatal(err)
		}
		resCfg, err := resilience.Preset(fuzzPresets[int(preset%uint64(len(fuzzPresets)))], 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := experiments.ScenarioConfig{
			Seed:          seed,
			Kind:          experiments.ControllerDCM,
			Trace:         tr,
			ThinkTime:     time.Second,
			ControlPeriod: 10 * time.Second,
			PrepDelay:     5 * time.Second,
			Tail:          10 * time.Second,
			Chaos:         &sched,
			Resilience:    resCfg,
			Invariants:    true,
		}
		res, err := experiments.RunScenario(cfg)
		if err != nil {
			// Some fuzzer-invented schedules are legal JSON but unrunnable
			// (e.g. targeting a VM that never exists); that is not an
			// invariant violation.
			t.Skipf("scenario rejected: %v", err)
		}
		if vs := res.InvariantViolations; len(vs) > 0 {
			t.Fatalf("schedule %s seed %d preset %s: %d invariant violation(s):\n%s",
				data, seed, fuzzPresets[int(preset%uint64(len(fuzzPresets)))],
				len(vs), invariant.Render(vs))
		}
	})
}
