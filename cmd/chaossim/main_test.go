package main

import (
	"os"
	"path/filepath"
	"testing"

	"dcm/internal/chaos"
	"dcm/internal/controller"
	"dcm/internal/experiments"
	"dcm/internal/ntier"
)

func TestRunErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-scenario", "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-file", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
	if err := run([]string{"-bad-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestListScenarios(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
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
	res, err := experiments.RunScenario(experiments.ScenarioConfig{
		Seed:  42,
		Kind:  experiments.ControllerDCM,
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

// TestRunBundledScenario drives the CLI itself end to end.
func TestRunBundledScenario(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-scenario", "tomcat-crash-midramp", "-every", "60"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioFromFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.json")
	body := `{
		"name": "custom",
		"faults": [
			{"kind": "degraded-server", "at": "2m", "duration": "90s", "tier": "app", "factor": 2}
		]
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-controller", "ec2-autoscale", "-every", "60"}); err != nil {
		t.Fatal(err)
	}
}

// TestFlagValidation covers the flag-combination errors: -parallel out of
// range or without -seeds, detail flags mixed with -seeds, and seed-list
// parse failures.
func TestFlagValidation(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		{"-parallel", "-1"},
		{"-parallel", "2"},                    // -parallel without -seeds
		{"-seeds", "1,2", "-trace", "/tmp/x"}, // detail flag with -seeds
		{"-seeds", "1,2", "-audit", "/tmp/x"}, // detail flag with -seeds
		{"-seeds", ""},                        // empty seed list
		{"-seeds", "1,notanumber"},            // unparseable seed
		{"-file", ""},                         // empty scenario path
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestParseSeedsSorts: the summary table must be ordered by seed whatever
// order the user typed.
func TestParseSeedsSorts(t *testing.T) {
	t.Parallel()
	got, err := parseSeeds("9, 3,7,1")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestRunWithTraceAndAudit drives the CLI detail mode with every
// observability flag and checks the artifacts land on disk.
func TestRunWithTraceAndAudit(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	auditPath := filepath.Join(dir, "audit.jsonl")
	profPath := filepath.Join(dir, "cpu.prof")
	err := run([]string{
		"-scenario", "tomcat-crash-midramp", "-every", "120",
		"-trace", tracePath, "-audit", auditPath, "-pprof", profPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tracePath, auditPath, profPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("artifact %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("artifact %s is empty", p)
		}
	}
}

// TestRunMultiSeed exercises the multi-seed summary path end to end.
func TestRunMultiSeed(t *testing.T) {
	t.Parallel()
	err := run([]string{
		"-scenario", "tomcat-crash-midramp", "-seeds", "2,1", "-parallel", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}
