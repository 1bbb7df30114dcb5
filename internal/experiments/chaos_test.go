package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"dcm/internal/chaos"
	"dcm/internal/controller"
	"dcm/internal/ntier"
	"dcm/internal/runner"
)

// TestChaosReplayIsByteIdentical is the determinism regression test: the
// same chaos scenario under the same seed must replay the exact same
// failure trace — byte-identical hypervisor event logs, injection logs
// and metric series.
func TestChaosReplayIsByteIdentical(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *ScenarioResult {
		res, err := RunScenario(ScenarioConfig{
			Seed:  1234,
			Kind:  ControllerDCM,
			Chaos: &sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()

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
		{"vm events", a.VMEvents, b.VMEvents},
		{"injections", a.Chaos.Injections, b.Chaos.Injections},
		{"seconds", a.Seconds, b.Seconds},
		{"throughput", a.Throughput, b.Throughput},
		{"mean rt", a.MeanRTSec, b.MeanRTSec},
		{"errors", a.Errors, b.Errors},
		{"tier counts", a.TierCounts, b.TierCounts},
		{"actions", a.Actions, b.Actions},
		{"chaos report", a.Chaos, b.Chaos},
	}
	for _, c := range checks {
		if !bytes.Equal(marshal(c.a), marshal(c.b)) {
			t.Errorf("%s differ between same-seed replays", c.name)
		}
	}
	if a.TotalCompleted != b.TotalCompleted || a.TotalErrors != b.TotalErrors {
		t.Errorf("totals differ: %d/%d vs %d/%d",
			a.TotalCompleted, a.TotalErrors, b.TotalCompleted, b.TotalErrors)
	}
}

// TestChaosParallelExecutorIsByteIdentical extends the determinism
// regression through the parallel executor: a batch of chaos scenarios
// run with 8 workers must be byte-identical, run for run, to the serial
// loop over the same configs — parallelism changes nothing but wall-clock.
func TestChaosParallelExecutorIsByteIdentical(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ScenarioConfig, 0, 8)
	for seed := uint64(1); seed <= 4; seed++ {
		for _, kind := range []ControllerKind{ControllerDCM, ControllerEC2} {
			cfgs = append(cfgs, ScenarioConfig{Seed: seed, Kind: kind, Chaos: &sched})
		}
	}
	run := func(workers int) [][]byte {
		results, err := runner.Map(cfgs, workers, func(_ int, cfg ScenarioConfig) ([]byte, error) {
			res, err := RunScenario(cfg)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	parallel := run(8)
	for i := range cfgs {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("run %d (seed %d, %s): parallel result differs from serial",
				i, cfgs[i].Seed, cfgs[i].Kind)
		}
	}
}

// TestChaosScenarioAttachesReport checks the experiments wiring: a
// schedule installs, the injection shows up in the report, and the
// blackout leaves a visible hole in the metric series.
func TestChaosScenarioAttachesReport(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("monitor-blackout")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(ScenarioConfig{
		Seed:  7,
		Kind:  ControllerEC2,
		Chaos: &sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil {
		t.Fatal("no chaos report attached")
	}
	if len(res.Chaos.Injections) == 0 {
		t.Fatal("no injections logged")
	}
	// The 45 s blackout must appear as blind time (the control-period
	// alignment can clip the edges by a sample or two).
	if res.Chaos.BlindSeconds < 40 {
		t.Fatalf("blind seconds = %v, want ≈45", res.Chaos.BlindSeconds)
	}
	// Without faults the report must stay nil.
	plain, err := RunScenario(ScenarioConfig{Seed: 7, Kind: ControllerEC2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Chaos != nil {
		t.Fatal("chaos report attached to a fault-free run")
	}
}

// TestTomcatCrashMidRampRecovers is the end-to-end acceptance test: under
// the bundled tomcat-crash-midramp scenario a Tomcat-tier VM dies in the
// middle of the second burst's ramp, and the DCM controller must detect
// the dead capacity from the hypervisor census and restore throughput
// within a bounded recovery time.
func TestTomcatCrashMidRampRecovers(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("tomcat-crash-midramp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(ScenarioConfig{
		Seed:  42,
		Kind:  ControllerDCM,
		Chaos: &sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil || len(res.Chaos.Faults) != 1 {
		t.Fatalf("chaos report = %+v", res.Chaos)
	}
	// The crash must actually have landed on a serving Tomcat.
	inj := res.Chaos.Injections[0]
	if inj.Skipped {
		t.Fatalf("crash skipped: %+v", inj)
	}
	crashed := false
	for _, ev := range res.VMEvents {
		if ev.Action == "crash" && ev.Tier == ntier.TierApp {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("no app-tier crash in the hypervisor event log")
	}
	// The controller must have re-provisioned...
	reprovisioned := false
	for _, rec := range res.Actions {
		if rec.Action.Tier == ntier.TierApp && rec.Action.Type == controller.ActionScaleOut {
			reprovisioned = true
		}
	}
	if !reprovisioned {
		t.Fatal("controller never scaled the app tier back out after the crash")
	}
	// ...and throughput must recover within a bounded time: one control
	// period to census the crash (15 s) + the preparation period (15 s)
	// + settling. 60 s is the asserted bound; the measured TTR is ~19 s.
	fr := res.Chaos.Faults[0]
	if !fr.Recovered {
		t.Fatalf("throughput never recovered: %+v", fr)
	}
	if fr.Impacted && (fr.TTRSeconds < 0 || fr.TTRSeconds > 60) {
		t.Fatalf("recovery took %.0f s, want ≤ 60 s", fr.TTRSeconds)
	}
}
