package conformance

import (
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/mva"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/workload"
)

// TestClassWeightedMVAConformance cross-validates the class-mixed request
// flow against MVA: a two-class closed workload (different app/db demand
// profiles) drives the full 1/1/1 n-tier application, and the measured
// steady-state throughput must agree with the MVA solution of the
// equivalent network — stations as in cmd/whatif's analyze(), with the
// per-station demands weighted by the realized class mix. Disagreement
// beyond 10% means InjectClass's demand threading (per-class app work,
// query count, per-query work) drifted from the model.
func TestClassWeightedMVAConformance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long steady-state run")
	}
	cfg := ntier.DefaultConfig()
	const queries = ntier.TierApp + "->" + ntier.TierDB
	classes := []graph.Class{
		{Name: "light", Profile: graph.Profile{EdgeVisits: map[string]int{queries: 1}}},
		{Name: "heavy", Profile: graph.Profile{
			NodeDemand: map[string]float64{ntier.TierApp: 1.5, ntier.TierDB: 1.5},
			EdgeVisits: map[string]int{queries: 3},
		}},
	}
	cfg.Classes = classes
	// The model reads each class's knobs from the profile the app runs:
	// a node demand the profile leaves out is 1.0, and a query count it
	// leaves out is the chain's QueriesPerRequest.
	demand := func(c graph.Class, node string) float64 {
		if d, ok := c.Profile.NodeDemand[node]; ok {
			return d
		}
		return 1
	}
	visits := func(c graph.Class) float64 {
		if v, ok := c.Profile.EdgeVisits[queries]; ok {
			return float64(v)
		}
		return float64(cfg.QueriesPerRequest)
	}
	const (
		users = 600
		think = time.Second
	)

	eng := sim.NewEngine()
	chk := invariant.New()
	invariant.AttachEngine(chk, eng)
	r := rng.New(4242)
	app, err := ntier.New(eng, r.Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.SetInvariantChecker(chk)

	spec := workload.WorkloadSpec{
		Name:           "class-mva",
		Kind:           workload.KindClosed,
		Users:          users,
		Think:          &workload.DistSpec{Dist: workload.DistExponential, Mean: think.Seconds()},
		StaggerSeconds: 1,
		Classes: []workload.ClassSpec{
			{Name: "light", Weight: 1},
			{Name: "heavy", Weight: 1},
		},
	}
	gen, err := spec.Build(eng, r.Split("wl"), app)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()

	const (
		warmup  = 20 * time.Second
		measure = 120 * time.Second
	)
	if err := eng.Run(warmup); err != nil {
		t.Fatal(err)
	}
	base := app.ClassStats()
	if err := eng.Run(warmup + measure); err != nil {
		t.Fatal(err)
	}
	app.CheckInvariants()
	invariant.CheckEngine(chk, eng)
	requireClean(t, chk)

	// Realized per-class completion shares weight the MVA demands — the
	// closed loop fixes each session's class at spawn, so the request mix
	// is the measured one, not exactly the configured weights.
	stats := app.ClassStats()
	var got float64
	deltas := make([]float64, len(stats))
	for i := range stats {
		deltas[i] = float64(stats[i].Completions - base[i].Completions)
		got += deltas[i]
	}
	if got == 0 {
		t.Fatal("no completions in the measurement window")
	}
	var appDemand, dbVisits, dbWeighted float64
	for i, c := range classes {
		p := deltas[i] / got
		if p == 0 {
			t.Fatalf("class %s saw no traffic", c.Name)
		}
		appDemand += p * demand(c, ntier.TierApp)
		dbVisits += p * visits(c)
		dbWeighted += p * visits(c) * demand(c, ntier.TierDB)
	}
	dbDemand := dbWeighted / dbVisits // per-visit scale, visit-weighted
	got /= measure.Seconds()

	// The equivalent MVA network: whatif's analyze() stations for a 1/1/1
	// deployment, each demand scaled the way ExecDemand scales a burst
	// (S_d(j) = S*(j) + (d-1)*S0), with thrash and allocation crosstalk on
	// the DB law.
	dbService := func(j int) float64 {
		s := cfg.DBModel.ServiceTime(float64(j))
		if cfg.DBThrashKnee > 0 && j > cfg.DBThrashKnee {
			over := float64(j - cfg.DBThrashKnee)
			s += cfg.DBThrashCoef * over * over
		}
		alloc := float64(cfg.DBConnsPerApp)
		s += cfg.DBModel.Beta * (alloc*(alloc-1) - float64(j)*(float64(j)-1))
		return s + (dbDemand-1)*cfg.DBModel.S0
	}
	net := mva.Network{
		ThinkTime: think.Seconds(),
		Stations: []mva.Station{
			mva.PooledStation("web", 1, cfg.WebThreads, func(j int) float64 {
				return cfg.WebModel.ServiceTime(float64(j))
			}),
			mva.PooledStation("app", 1, cfg.AppThreads, func(j int) float64 {
				return cfg.AppModel.ServiceTime(float64(j)) + (appDemand-1)*cfg.AppModel.S0
			}),
			mva.PooledStation("db", dbVisits, cfg.DBConnsPerApp, dbService),
		},
	}
	results, err := mva.Solve(net, users)
	if err != nil {
		t.Fatal(err)
	}
	want := results[users-1].Throughput
	if err := relErr(got, want); err > 0.10 {
		t.Fatalf("class mix app=%.3f dbVisits=%.3f dbDemand=%.3f: sim %.2f req/s vs MVA %.2f (err %.1f%%, want <= 10%%)",
			appDemand, dbVisits, dbDemand, got, want, err*100)
	}
	t.Logf("sim %.2f req/s vs class-weighted MVA %.2f (err %.2f%%)", got, want, relErr(got, want)*100)
}
