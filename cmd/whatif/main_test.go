package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"dcm/internal/experiments"
	"dcm/internal/ntier"
)

func TestRunErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-bad-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-users", "0"}); err == nil {
		t.Fatal("zero users accepted")
	}
}

func TestRunSmoke(t *testing.T) {
	t.Parallel()
	if err := run([]string{
		"-app", "1", "-db", "1", "-app-threads", "20", "-db-conns", "36",
		"-users", "500", "-measure", "4s",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONSmoke(t *testing.T) {
	t.Parallel()
	if err := run([]string{
		"-users", "500", "-measure", "4s", "-json", "-slo", "0.25",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluationSchema pins the -json payload: the shared
// autotune.Evaluation schema with binary steady-state attainment and no
// controller/cost dimensions.
func TestEvaluationSchema(t *testing.T) {
	t.Parallel()
	ev := evaluation("mva", 480, 0.012, 0.5)
	if ev.Source != "mva" || ev.Attainment != 1 || ev.ThroughputRPS != 480 || ev.MeanRTSec != 0.012 {
		t.Fatalf("evaluation wrong: %+v", ev)
	}
	if ev.Controller != "" || ev.ServerHours != 0 {
		t.Fatalf("steady-state evaluation carries controller/cost fields: %+v", ev)
	}
	if ev := evaluation("simulation", 480, 0.8, 0.5); ev.Attainment != 0 {
		t.Fatalf("missed SLO must score 0, got %v", ev.Attainment)
	}
	b, err := json.Marshal(evaluation("mva", 480, 0.012, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"source"`, `"sloSec"`, `"attainment"`, `"throughputRPS"`, `"meanRTSec"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("marshaled evaluation missing %s: %s", key, b)
		}
	}
	for _, key := range []string{`"controller"`, `"serverHours"`, `"completed"`} {
		if strings.Contains(string(b), key) {
			t.Fatalf("marshaled evaluation should omit %s: %s", key, b)
		}
	}
}

// TestAnalysisTracksSimulation: the approximate MVA and the simulation
// must agree within 15% in the healthy operating regime — the tool's
// usefulness depends on it.
func TestAnalysisTracksSimulation(t *testing.T) {
	t.Parallel()
	cfg := ntier.DefaultConfig()
	cfg.AppThreads = 20
	cfg.DBConnsPerApp = 36
	for _, users := range []int{300, 1200, 2200} {
		m, err := experiments.SteadyState(42, cfg, users, 3*time.Second, 10*time.Second, 8*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		simX := m.Throughput
		mvaX, _, err := analyze(cfg, users, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(simX-mvaX) / simX; rel > 0.15 {
			t.Errorf("users=%d: sim %v vs mva %v (%.0f%% apart)", users, simX, mvaX, rel*100)
		}
	}
}

// TestAnalysisPredictsTrap: the analytical model must also see the
// Fig. 2(b) collapse of the 160-connection allocation.
func TestAnalysisPredictsTrap(t *testing.T) {
	t.Parallel()
	good := ntier.DefaultConfig()
	good.AppServers = 2
	good.DBConnsPerApp = 20
	bad := good
	bad.DBConnsPerApp = 80

	goodX, _, err := analyze(good, 3000, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	badX, _, err := analyze(bad, 3000, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if badX > 0.6*goodX {
		t.Fatalf("analysis missed the trap: 80-conn %v vs 20-conn %v", badX, goodX)
	}
}
