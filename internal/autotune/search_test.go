package autotune

import (
	"encoding/json"
	"strings"
	"testing"

	"dcm/internal/experiments"
	"dcm/internal/rng"
)

// quickConfig is a small but real search: one controller, the quick steady
// scenario, a budget that forces both grid subsampling and a refinement
// round.
func quickConfig(workers int) (Config, error) {
	port, err := Portfolio([]string{"steady"}, 7, true)
	if err != nil {
		return Config{}, err
	}
	tmpl, err := TemplateFor(experiments.ControllerTargetTracking)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Templates: []Template{tmpl},
		Portfolio: port,
		Budget:    6,
		Seeds:     1,
		Rounds:    1,
		Workers:   workers,
		Seed:      3,
	}, nil
}

// TestSearchDeterministicAcrossWorkers is the autotuner's core contract:
// the marshaled report is byte-identical whether candidates are evaluated
// serially or across a worker pool.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scenario simulations")
	}
	var reports [][]byte
	for _, workers := range []int{1, 4} {
		cfg, err := quickConfig(workers)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Fatalf("report differs between workers=1 and workers=4:\n%s\n---\n%s",
			reports[0], reports[1])
	}
}

// TestSearchReportShape checks the search outcome's structure on the quick
// portfolio: budget respected, frontier non-empty and non-dominated,
// points carry per-scenario evaluations.
func TestSearchReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scenario simulations")
	}
	cfg, err := quickConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Controllers) != 1 {
		t.Fatalf("%d controller reports, want 1", len(rep.Controllers))
	}
	cr := rep.Controllers[0]
	if cr.Controller != string(experiments.ControllerTargetTracking) {
		t.Fatalf("controller %q", cr.Controller)
	}
	if cr.Evaluated == 0 || cr.Evaluated > cfg.Budget {
		t.Fatalf("evaluated %d, want in (0, %d]", cr.Evaluated, cfg.Budget)
	}
	if len(cr.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range cr.Points {
		if len(p.Evaluations) != len(cfg.Portfolio) {
			t.Fatalf("point %s has %d evaluations, want %d", p.Key(), len(p.Evaluations), len(cfg.Portfolio))
		}
		if p.ServerHours <= 0 {
			t.Fatalf("point %s has non-positive server-hours", p.Key())
		}
	}
	// No frontier point may be dominated by any evaluated point.
	for _, f := range cr.Frontier {
		for _, p := range cr.Points {
			if p.Attainment > f.Attainment && p.ServerHours < f.ServerHours {
				t.Fatalf("frontier point %s dominated by %s", f.Key(), p.Key())
			}
		}
	}

	out := RenderReport(rep)
	for _, want := range []string{"portfolio: steady (seed 7, quick)", "target-tracking:", "serverHours", "targetCPU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestPerturbDeterministic pins that the same rng stream yields the same
// refinement candidate.
func TestPerturbDeterministic(t *testing.T) {
	tmpl, err := TemplateFor(experiments.ControllerDCM)
	if err != nil {
		t.Fatal(err)
	}
	grid := tmpl.Grid()
	if len(grid) == 0 {
		t.Fatal("empty grid")
	}
	base := grid[len(grid)/2]
	a, okA := tmpl.Perturb(base, rng.New(9).Split("x"))
	b, okB := tmpl.Perturb(base, rng.New(9).Split("x"))
	if okA != okB || (okA && a.Key() != b.Key()) {
		t.Fatalf("perturb not deterministic: %v/%v %q vs %q", okA, okB, a.Key(), b.Key())
	}
	for _, tn := range tmpl.Tunables {
		if okA {
			v := a.Values[tn.Knob]
			if v < tn.Min || v > tn.Max {
				t.Fatalf("perturbed %s=%g outside [%g, %g]", tn.Knob, v, tn.Min, tn.Max)
			}
		}
	}
}

// TestConfigDefaults pins the documented defaulting.
func TestConfigDefaults(t *testing.T) {
	var c Config
	if err := c.defaults(); err != nil {
		t.Fatal(err)
	}
	if c.Budget != 24 || c.Seeds != 2 || c.Rounds != 2 || c.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if len(c.Templates) != len(DefaultTemplates()) || len(c.Portfolio) != len(ScenarioNames()) {
		t.Fatalf("default templates/portfolio wrong: %d/%d", len(c.Templates), len(c.Portfolio))
	}
	c = Config{Seeds: -1}
	if err := c.defaults(); err != nil {
		t.Fatal(err)
	}
	if c.Seeds != 0 {
		t.Fatalf("negative Seeds should disable refinement, got %d", c.Seeds)
	}
	bad := Config{Templates: []Template{{Controller: "dcm"}}}
	if err := bad.defaults(); err == nil {
		t.Fatal("invalid template accepted")
	}
}
