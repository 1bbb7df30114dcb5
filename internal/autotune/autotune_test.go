package autotune

import (
	"strings"
	"testing"

	"dcm/internal/experiments"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/policy"
)

func TestKnobRegistry(t *testing.T) {
	ks := knobs
	if len(ks) < 8 {
		t.Fatalf("registry has %d knobs, want >= 8", len(ks))
	}
	for _, k := range ks {
		if k.Min >= k.Max {
			t.Errorf("knob %s bounds [%g, %g] degenerate", k.Name, k.Min, k.Max)
		}
		if k.Apply == nil {
			t.Errorf("knob %s has no Apply", k.Name)
		}
	}
	if _, ok := KnobByName("upperCPU"); !ok {
		t.Fatal("upperCPU not registered")
	}
	if _, ok := KnobByName("nope"); ok {
		t.Fatal("unknown knob resolved")
	}
}

func TestValidateTunables(t *testing.T) {
	cases := []struct {
		name string
		ts   []Tunable
		want string
	}{
		{"empty", nil, "no tunables"},
		{"unknown", []Tunable{{Knob: "bogus", Min: 0, Max: 1}}, `unknown knob "bogus"`},
		{"duplicate", []Tunable{
			{Knob: "upperCPU", Min: 0.6, Max: 0.9},
			{Knob: "upperCPU", Min: 0.6, Max: 0.9},
		}, "listed twice"},
		{"inverted", []Tunable{{Knob: "upperCPU", Min: 0.9, Max: 0.6}}, "inverted"},
		{"outside", []Tunable{{Knob: "upperCPU", Min: 0.2, Max: 0.9}}, "outside hard bounds"},
	}
	for _, tc := range cases {
		err := validateTunables(tc.ts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := validateTunables([]Tunable{{Knob: "upperCPU", Min: 0.6, Max: 0.9}}); err != nil {
		t.Fatalf("valid tunables rejected: %v", err)
	}
}

func TestGridValuesInteger(t *testing.T) {
	k, _ := KnobByName("lowerConsecutive")
	// Five steps across [2, 4] round to 2, 2.5->3, 3, 3.5->4, 4: the dedup
	// keeps 2, 3, 4 only... rounding gives 2, 3 (from 2.5), 3, 4 (from
	// 3.5), 4 -> dedup to 2, 3, 4.
	got := gridValues(Tunable{Knob: k.Name, Min: 2, Max: 4, Steps: 5}, k)
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("grid %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grid %v, want %v", got, want)
		}
	}
}

func TestCandidateKeyDeterministic(t *testing.T) {
	c := Candidate{Values: map[string]float64{"upperCPU": 0.75, "headroom": 1.2}}
	if got, want := c.Key(), "headroom=1.2,upperCPU=0.75"; got != want {
		t.Fatalf("key %q, want %q", got, want)
	}
}

func TestDefaultTemplates(t *testing.T) {
	tmpls := DefaultTemplates()
	if len(tmpls) < 2 {
		t.Fatalf("%d templates, want >= 2", len(tmpls))
	}
	for _, tmpl := range tmpls {
		if err := tmpl.Validate(); err != nil {
			t.Errorf("template %s invalid: %v", tmpl.Controller, err)
		}
		if len(tmpl.Tunables) < 3 {
			t.Errorf("template %s has %d tunables, want >= 3", tmpl.Controller, len(tmpl.Tunables))
		}
		grid := tmpl.Grid()
		if len(grid) == 0 {
			t.Errorf("template %s grid empty", tmpl.Controller)
		}
		seen := map[string]bool{}
		for _, c := range grid {
			if seen[c.Key()] {
				t.Errorf("template %s grid repeats %s", tmpl.Controller, c.Key())
			}
			seen[c.Key()] = true
			if err := c.Rules.Validate(); err != nil {
				t.Errorf("template %s grid candidate %s invalid: %v", tmpl.Controller, c.Key(), err)
			}
			if !strings.HasPrefix(c.Rules.Name, "autotune:"+string(tmpl.Controller)+":") {
				t.Errorf("candidate rules name %q lacks the autotune prefix", c.Rules.Name)
			}
		}
	}
	if _, err := TemplateFor(experiments.ControllerKind("nope")); err == nil {
		t.Fatal("TemplateFor accepted an unknown controller")
	}
}

func TestSubsample(t *testing.T) {
	cands := make([]Candidate, 10)
	for i := range cands {
		cands[i] = Candidate{Values: map[string]float64{"upperCPU": float64(i)}}
	}
	got := Subsample(cands, 4)
	if len(got) != 4 {
		t.Fatalf("subsample kept %d, want 4", len(got))
	}
	// Stride i*10/4 keeps indices 0, 2, 5, 7.
	for i, wantIdx := range []float64{0, 2, 5, 7} {
		if got[i].Values["upperCPU"] != wantIdx {
			t.Fatalf("subsample[%d] = %v, want index %v", i, got[i].Values["upperCPU"], wantIdx)
		}
	}
	if got := Subsample(cands, 20); len(got) != 10 {
		t.Fatalf("under-budget subsample changed length: %d", len(got))
	}
}

func TestParetoFrontier(t *testing.T) {
	pt := func(name string, att, sh float64) Point {
		return Point{
			Candidate:   Candidate{Values: map[string]float64{"upperCPU": 0.5}, Rules: mustRules(name)},
			Attainment:  att,
			ServerHours: sh,
		}
	}
	pts := []Point{
		pt("a", 0.9, 2.0), // frontier: best attainment
		pt("b", 0.9, 3.0), // dominated by a (same attainment, dearer)
		pt("c", 0.5, 1.0), // frontier: cheapest
		pt("d", 0.4, 1.5), // dominated by c
		pt("e", 0.7, 1.5), // frontier: middle
		pt("f", 0.7, 1.5), // exact tie with e: dropped
	}
	fr := ParetoFrontier(pts)
	if len(fr) != 3 {
		t.Fatalf("frontier has %d points, want 3: %+v", len(fr), fr)
	}
	// Sorted by server-hours ascending.
	wantNames := []string{"c", "e", "a"}
	for i, p := range fr {
		if p.Rules.Name != wantNames[i] {
			t.Fatalf("frontier[%d] = %s, want %s", i, p.Rules.Name, wantNames[i])
		}
	}
	if fr := ParetoFrontier(nil); len(fr) != 0 {
		t.Fatalf("empty frontier got %d points", len(fr))
	}
}

func TestEvaluateScoring(t *testing.T) {
	res := &experiments.ScenarioResult{
		Kind:       experiments.ControllerDCM,
		MeanRTSec:  []float64{0.1, 0.2, 0.9, 1.0}, // 2 of 4 within a 0.5 s SLO
		Throughput: []float64{100, 200, 300, 400},
		TierCounts: map[string][]int{
			ntier.TierApp: {2, 2, 2, 2},
			ntier.TierDB:  {1, 1, 1, 1},
			ntier.TierWeb: {1, 1, 1, 1}, // web is not a scalable tier: excluded
		},
		TotalCompleted: 900,
		TotalErrors:    100,
	}
	ev := Evaluate("steady", res, 0.5)
	if ev.Source != "steady" || ev.Controller != "dcm" {
		t.Fatalf("identity fields wrong: %+v", ev)
	}
	// 0.5 SLO fraction x 0.9 success fraction.
	if want := 0.5 * 0.9; ev.Attainment != want {
		t.Fatalf("attainment %v, want %v", ev.Attainment, want)
	}
	if ev.ThroughputRPS != 250 {
		t.Fatalf("throughput %v, want 250", ev.ThroughputRPS)
	}
	// (2+1) servers x 4 seconds / 3600.
	if want := 12.0 / 3600; ev.ServerHours != want {
		t.Fatalf("server-hours %v, want %v", ev.ServerHours, want)
	}

	// A disposition taxonomy overrides the completed/errors ratio.
	res.Dispositions = &metrics.DispositionCounts{OK: 80, Shed: 10, TimedOut: 10}
	ev = Evaluate("steady", res, 0.5)
	if want := 0.5 * 0.8; ev.Attainment != want {
		t.Fatalf("disposition attainment %v, want %v", ev.Attainment, want)
	}
}

func TestPortfolioErrors(t *testing.T) {
	if _, err := Portfolio([]string{"steady", "steady"}, 1, false); err == nil {
		t.Fatal("duplicate scenario accepted")
	}
	if _, err := Portfolio([]string{"bogus"}, 1, false); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	all, err := Portfolio(nil, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ScenarioNames()) {
		t.Fatalf("default portfolio has %d scenarios, want %d", len(all), len(ScenarioNames()))
	}
	for _, s := range all {
		if s.Seed != 7 || !s.Quick || s.SLOSec <= 0 {
			t.Fatalf("scenario misbuilt: %+v", s)
		}
	}
}

// mustRules builds a named default rule set for frontier fixtures.
func mustRules(name string) policy.Rules {
	r := policy.Default()
	r.Name = name
	return r
}
