package ntier

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func TestClassValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	r := rng.New(1)
	bad := [][]graph.Class{
		{{Name: ""}},
		{{Name: "a"}, {Name: "a"}},
		{{Name: "a", Priority: -1}},
		{{Name: "a", SLO: -time.Second}},
		{servlet("a", 0, -1, 0, 0)},
		{servlet("a", 0, 0, -1, 0)},
		{servlet("a", 0, 0, 0, -0.5)},
	}
	for i, classes := range bad {
		cfg := fastConfig()
		cfg.Classes = classes
		if _, err := New(eng, r, cfg); !errors.Is(err, graph.ErrBadClass) {
			t.Errorf("case %d: err = %v, want graph.ErrBadClass", i, err)
		}
	}

	// A class set is either picked by the workload (no weights) or drawn
	// by weight (the servlet mix); mixing the two forms is rejected.
	cfg := fastConfig()
	cfg.Classes = []graph.Class{{Name: "a"}, {Name: "s", Weight: 1}}
	if _, err := New(eng, r, cfg); !errors.Is(err, graph.ErrBadClass) ||
		!strings.Contains(err.Error(), "all zero or all positive") {
		t.Errorf("unweighted+weighted: err = %v, want mixed-weights graph.ErrBadClass", err)
	}
}

// TestClassDefaultsFilled: a class whose profile leaves a knob out runs
// it at the chain's default, so an empty profile issues QueriesPerRequest
// queries per request, and an explicit query count overrides that.
func TestClassDefaultsFilled(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.QueriesPerRequest = 3
	cfg.Classes = []graph.Class{{Name: "a"}, servlet("b", 0, 2, 1, 0)}
	eng, app := newApp(t, cfg)
	db := app.Members(TierDB)[0].Server()
	for _, tc := range []struct {
		class, bursts int
	}{{0, 30}, {1, 10}} {
		for i := 0; i < 10; i++ {
			app.InjectClass(tc.class, 0, nil)
		}
		if err := eng.Run(eng.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
		if got := db.TakeSample().Completions; got != uint64(tc.bursts) {
			t.Errorf("class %s: db bursts = %d, want %d", cfg.Classes[tc.class].Name, got, tc.bursts)
		}
	}
}

// TestInjectClassTallies drives a two-class mix and checks the per-class
// accounting: injected counts split exactly, dispositions conserve against
// the whole-app tally, and the per-class invariants stay clean.
func TestInjectClassTallies(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{
		{Name: "premium", Priority: 1, SLO: 2 * time.Second},
		{Name: "basic"},
	}
	eng, app := newApp(t, cfg)
	chk := invariant.New()
	app.SetInvariantChecker(chk)

	want := map[int]uint64{0: 40, 1: 160}
	for cls, n := range want {
		cls := cls
		for i := uint64(0); i < n; i++ {
			at := time.Duration(i) * 50 * time.Millisecond
			eng.Schedule(at, func() { app.InjectClass(cls, 0, nil) })
		}
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}

	stats := app.ClassStats()
	if len(stats) != 2 {
		t.Fatalf("ClassStats len = %d, want 2", len(stats))
	}
	var totalInjected uint64
	for i, st := range stats {
		if st.Injected != want[i] {
			t.Errorf("class %s injected %d, want %d", st.Name, st.Injected, want[i])
		}
		if st.InFlight != 0 {
			t.Errorf("class %s still in flight: %d", st.Name, st.InFlight)
		}
		if st.Completions == 0 || st.Completions != st.Dispositions.OK {
			t.Errorf("class %s completions %d vs dispositions %+v", st.Name, st.Completions, st.Dispositions)
		}
		if st.MeanRTms <= 0 {
			t.Errorf("class %s mean RT %v", st.Name, st.MeanRTms)
		}
		totalInjected += st.Injected
	}
	// Premium completions within its 2 s SLO count as good.
	if stats[0].Good == 0 || stats[0].Good > stats[0].Completions {
		t.Errorf("premium good %d of %d completions", stats[0].Good, stats[0].Completions)
	}

	// The split conserves against the whole-app tally: CheckInvariants
	// runs the per-class conservation check.
	app.CheckInvariants()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations:\n%s", invariant.Render(vs))
	}
	if app.TotalCompletions() != totalInjected {
		t.Fatalf("completions %d, injected %d", app.TotalCompletions(), totalInjected)
	}
}

// TestInjectClassOutOfRange: a class index outside the configured set is
// treated as unclassed traffic — tallied in the aggregate, absent from
// every class row, and still conserved.
func TestInjectClassOutOfRange(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{{Name: "only"}}
	eng, app := newApp(t, cfg)
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	app.InjectClass(5, 0, nil)
	app.InjectClass(-3, 0, nil)
	app.InjectClass(0, 0, nil)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := app.ClassStats()[0].Injected; got != 1 {
		t.Fatalf("classed injected = %d, want 1", got)
	}
	if got := app.Dispositions().Total(); got != 3 {
		t.Fatalf("total dispositions = %d, want 3", got)
	}
	app.CheckInvariants()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations:\n%s", invariant.Render(vs))
	}
}

// TestClassDemandProfiles: a heavier class must see longer response times
// than a light one under the same (uncontended) conditions.
func TestClassDemandProfiles(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{
		servlet("light", 0, 0, 1, 0),
		servlet("heavy", 0, 4, 6, 2),
	}
	eng, app := newApp(t, cfg)
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 200 * time.Millisecond
		eng.Schedule(at, func() { app.InjectClass(0, 0, nil) })
		eng.Schedule(at+100*time.Millisecond, func() { app.InjectClass(1, 0, nil) })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	stats := app.ClassStats()
	if stats[0].MeanRTms <= 0 || stats[1].MeanRTms <= stats[0].MeanRTms {
		t.Fatalf("heavy class RT %.2fms not above light %.2fms",
			stats[1].MeanRTms, stats[0].MeanRTms)
	}
}

// TestCriticalClassNotShed reproduces the admission-control contract under
// overload: with CoDel active and the system saturated, the priority class
// is never CoDel-shed while the best-effort class absorbs the shedding.
// (Bounded-queue rejection still applies to both — criticality is not a
// bypass of backpressure, only of latency-based shedding.)
func TestCriticalClassNotShed(t *testing.T) {
	t.Parallel()
	res, err := resilience.Preset("full", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.AppThreads = 4
	cfg.DBConnsPerApp = 4
	cfg.Resilience = *res
	// Both classes are deliberately heavy (20 queries at 4x demand each,
	// roughly 55 ms of DB work per request) so 400 req/s of offered load
	// is several times the four-connection DB tier's capacity.
	critical := servlet("premium", 0, 0, 20, 4)
	critical.Priority = 1
	cfg.Classes = []graph.Class{critical, servlet("basic", 0, 0, 20, 4)}
	eng, app := newApp(t, cfg)
	chk := invariant.New()
	app.SetInvariantChecker(chk)

	// Offered load far past the 4-thread app tier's capacity: 200 req/s
	// per class for 30 s.
	for i := 0; i < 6000; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		cls := i % 2
		eng.Schedule(at, func() { app.InjectClass(cls, 0, nil) })
	}
	if err := eng.Run(45 * time.Second); err != nil {
		t.Fatal(err)
	}

	stats := app.ClassStats()
	premium, basic := stats[0], stats[1]
	if premium.Dispositions.Shed != 0 {
		t.Errorf("premium shed %d requests, want 0 (criticality bypasses CoDel)", premium.Dispositions.Shed)
	}
	if basic.Dispositions.Shed == 0 {
		t.Error("basic class was never shed — overload not reached, test is vacuous")
	}
	// Criticality is not a bypass of backpressure: premium must still fail
	// through the non-shed channels (deadlines, bounded queues, breakers).
	p := premium.Dispositions
	if p.TimedOut+p.Rejected+p.BreakerOpen == 0 {
		t.Errorf("premium never hit backpressure under overload: %+v", p)
	}
	app.CheckInvariants()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations:\n%s", invariant.Render(vs))
	}
}
