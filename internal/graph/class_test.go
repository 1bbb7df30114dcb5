package graph

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// newClassApp builds minimalSpec with the given classes and an attached
// invariant checker.
func newClassApp(t *testing.T, classes []Class) (*sim.Engine, *App, *invariant.Checker) {
	t.Helper()
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: minimalSpec(), Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	return eng, app, chk
}

// TestClassWeightValidation: a class set is either all unweighted or all
// weighted; a negative weight or a mix of zero and positive weights is
// rejected.
func TestClassWeightValidation(t *testing.T) {
	t.Parallel()
	bad := map[string][]Class{
		"negative":        {{Name: "a", Weight: -1}},
		"zero-then-one":   {{Name: "a"}, {Name: "b", Weight: 1}},
		"one-then-zero":   {{Name: "a", Weight: 1}, {Name: "b"}},
		"negative-in-set": {{Name: "a", Weight: 1}, {Name: "b", Weight: -1}},
	}
	for name, classes := range bad {
		_, err := New(sim.NewEngine(), rng.New(1), Config{Spec: minimalSpec(), Classes: classes})
		if !errors.Is(err, ErrBadClass) {
			t.Errorf("%s: err = %v, want ErrBadClass", name, err)
		}
	}
	for _, classes := range [][]Class{
		{{Name: "a"}, {Name: "b"}},
		{{Name: "a", Weight: 1}, {Name: "b", Weight: 0.5}},
	} {
		if _, err := New(sim.NewEngine(), rng.New(1), Config{Spec: minimalSpec(), Classes: classes}); err != nil {
			t.Errorf("%+v rejected: %v", classes, err)
		}
	}
}

// TestWeightedInjectClassTalliesOnlyThatClass: on a weighted set an
// explicit InjectClass bypasses the draw and lands on the named class;
// only Inject draws.
func TestWeightedInjectClassTalliesOnlyThatClass(t *testing.T) {
	t.Parallel()
	eng, app, chk := newClassApp(t, []Class{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}})
	for i := 0; i < 20; i++ {
		app.InjectClass(1, 0, nil)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	stats := app.ClassStats()
	if stats[0].Injected != 0 || stats[1].Injected != 20 || stats[1].Completions != 20 {
		t.Fatalf("class tallies a=%+v b=%+v, want all 20 on b", stats[0], stats[1])
	}
	app.Inject(nil)
	if err := eng.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	stats = app.ClassStats()
	if got := stats[0].Injected + stats[1].Injected; got != 21 {
		t.Fatalf("classed injections = %d, want 21 (Inject draws a class)", got)
	}
	requireClean(t, app, chk)
}

// TestClassZeroVisitsSkipsNode: a class whose profile sets an edge to 0
// visits never reaches the node behind it, even though the edge's default
// visit ratio is 1.
func TestClassZeroVisitsSkipsNode(t *testing.T) {
	t.Parallel()
	eng, app, chk := newClassApp(t, []Class{
		{Name: "static", Weight: 1, Profile: Profile{EdgeVisits: map[string]int{"a->b": 0}}},
	})
	app.Inject(nil)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if app.TotalCompletions() != 1 {
		t.Fatal("request did not complete")
	}
	if got := app.Members("b")[0].Server().TakeSample().Completions; got != 0 {
		t.Fatalf("b bursts = %d", got)
	}
	if got := app.NodeVisits()["b"].Started; got != 0 {
		t.Fatalf("b visits = %d", got)
	}
	requireClean(t, app, chk)
}

// TestClassConservationCatchesDrift: the per-class disposition tallies
// plus the unclassed remainder must sum to the whole-graph tally, so one
// class counting a request the graph never finished is a metrics
// violation on "graph/classes".
func TestClassConservationCatchesDrift(t *testing.T) {
	t.Parallel()
	eng, app, chk := newClassApp(t, []Class{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}})
	for i := 0; i < 20; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	requireClean(t, app, chk)
	app.classes[0].disp.OK++
	app.CheckInvariants()
	for _, v := range chk.Violations() {
		if v.Where == "graph/classes" && v.Rule == invariant.RuleMetrics {
			return
		}
	}
	t.Fatalf("no class-conservation violation after corrupting class a:\n%s",
		invariant.Render(chk.Violations()))
}
