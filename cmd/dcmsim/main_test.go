package main

import (
	"os"
	"path/filepath"
	"testing"

	"dcm/internal/trace"
)

func TestRunErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-controller", "bogus"}); err == nil {
		t.Fatal("unknown controller accepted")
	}
	if err := run([]string{"-trace", "/does/not/exist.csv"}); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := run([]string{"-bad-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunChaosErrors covers -chaos values that resolve to no fault schedule:
// an unknown bundled name and a schedule file that does not exist.
func TestRunChaosErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-chaos", "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-chaos", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

func TestListScenarios(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBundledScenario drives a bundled fault schedule end to end.
func TestRunBundledScenario(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-chaos", "tomcat-crash-midramp", "-every", "60"}); err != nil {
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
	if err := run([]string{"-chaos", path, "-controller", "ec2-autoscale", "-every", "60"}); err != nil {
		t.Fatal(err)
	}
}

// TestFlagValidation covers the flag-combination errors: -parallel out of
// range or without -seeds, single-run flags mixed with -seeds, seed-list
// parse failures, and a -chaos value that names no schedule.
func TestFlagValidation(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		{"-parallel", "-1"},
		{"-parallel", "2"},                        // -parallel without -seeds
		{"-seeds", "1,2", "-reqtrace", "x.jsonl"}, // detail flag with -seeds
		{"-seeds", "1,2", "-audit", "x.jsonl"},    // detail flag with -seeds
		{"-seeds", "1,2", "-csv", "x.csv"},        // single-run output with -seeds
		{"-seeds", "1,2", "-compare"},             // single-run output with -seeds
		{"-seeds", ""},                            // empty seed list
		{"-seeds", "1,notanumber"},                // unparseable seed
		{"-chaos", "neither-bundled-nor-a-file"},  // unresolvable schedule
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

// TestRunWithTraceAndAudit drives a fault-injected run with every
// observability flag and checks the artifacts land on disk. It does not
// run in parallel: only one CPU profile can be active per process, and
// TestRunWithObservabilityFlags profiles too.
func TestRunWithTraceAndAudit(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	auditPath := filepath.Join(dir, "audit.jsonl")
	profPath := filepath.Join(dir, "cpu.prof")
	err := run([]string{
		"-chaos", "tomcat-crash-midramp", "-every", "120",
		"-reqtrace", tracePath, "-audit", auditPath, "-pprof", profPath,
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
		"-chaos", "tomcat-crash-midramp", "-seeds", "2,1", "-parallel", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunShortScenarioFromFile(t *testing.T) {
	t.Parallel()
	tr, err := trace.SynthesizeStep("s", 200, 1200, 20e9, 60e9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "step.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-controller", "dcm", "-trace", path, "-every", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestUserBounds(t *testing.T) {
	t.Parallel()
	if minUsers(nil) != 0 || maxUsers(nil) != 0 {
		t.Fatal("empty bounds wrong")
	}
	if minUsers([]int{3, 1, 2}) != 1 || maxUsers([]int{3, 1, 2}) != 3 {
		t.Fatal("bounds wrong")
	}
	if traceName(nil) == "" {
		t.Fatal("nil trace name empty")
	}
}

// TestRunWithObservabilityFlags drives -reqtrace, -audit and -pprof end to
// end on a short trace and checks the artifacts land on disk.
func TestRunWithObservabilityFlags(t *testing.T) {
	t.Parallel()
	tr, err := trace.SynthesizeStep("s", 200, 1200, 20e9, 60e9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "step.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "req.jsonl")
	auditPath := filepath.Join(dir, "audit.jsonl")
	profPath := filepath.Join(dir, "cpu.prof")
	err = run([]string{
		"-controller", "dcm", "-trace", csvPath, "-every", "60",
		"-reqtrace", tracePath, "-audit", auditPath, "-pprof", profPath,
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
