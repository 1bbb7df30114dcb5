package ntier

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/model"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// fastConfig is a small, quick configuration for functional tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.WebThreads = 50
	cfg.AppThreads = 10
	cfg.DBConnsPerApp = 10
	return cfg
}

func newApp(t *testing.T, cfg Config) (*sim.Engine, *graph.App) {
	t.Helper()
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, app
}

// inFlight is app's request population: injected requests the
// disposition tally has not accounted for yet.
func inFlight(app *graph.App) uint64 {
	return app.TotalInjected() - app.Dispositions().Total()
}

func TestDefaultAppConfigUsable(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	if cfg.AppThreads != 100 || cfg.DBConnsPerApp != 80 || cfg.WebThreads != 1000 {
		t.Fatalf("default allocation = %d/%d/%d", cfg.WebThreads, cfg.AppThreads, cfg.DBConnsPerApp)
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	r := rng.New(1)
	bad := []func(*Config){
		func(c *Config) { c.WebServers = 0 },
		func(c *Config) { c.AppThreads = 0 },
		func(c *Config) { c.DBConnsPerApp = 0 },
		func(c *Config) { c.DBMaxConns = 0 },
		func(c *Config) { c.QueriesPerRequest = -1 },
		func(c *Config) { c.AppModel = model.Params{} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(eng, r, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	if _, err := New(nil, r, DefaultConfig()); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestInitialTopology(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppServers = 2
	cfg.DBServers = 3
	_, app := newApp(t, cfg)
	if got := app.MemberCount(TierWeb); got != 1 {
		t.Fatalf("web servers = %d", got)
	}
	if got := app.MemberCount(TierApp); got != 2 {
		t.Fatalf("app servers = %d", got)
	}
	if got := app.MemberCount(TierDB); got != 3 {
		t.Fatalf("db servers = %d", got)
	}
	members := app.Members(TierApp)
	if len(members) != 2 || members[0].Name() != "app-1" || members[1].Name() != "app-2" {
		t.Fatalf("app members = %v, %v", members[0].Name(), members[1].Name())
	}
	if members[0].Pool() == nil {
		t.Fatal("app member has no conn pool")
	}
	if app.Members(TierDB)[0].Pool() != nil {
		t.Fatal("db member unexpectedly has a conn pool")
	}
}

func TestRequestFlowCompletes(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	var (
		gotRT time.Duration
		gotOK bool
		calls int
	)
	app.Inject(func(rt time.Duration, ok bool) {
		gotRT, gotOK, calls = rt, ok, calls+1
	})
	if n := inFlight(app); n != 1 {
		t.Fatalf("in flight = %d", n)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !gotOK {
		t.Fatalf("done calls=%d ok=%v", calls, gotOK)
	}
	// RT must be at least the sum of the three tiers' single-request bursts:
	// web S0 + app S0 + 2 * db S0.
	cfg := fastConfig()
	minRT := time.Duration((cfg.WebModel.S0 + cfg.AppModel.S0 + 2*cfg.DBModel.S0) * float64(time.Second))
	if gotRT < minRT {
		t.Fatalf("rt = %v, want >= %v", gotRT, minRT)
	}
	if app.TotalCompletions() != 1 || app.TotalErrors() != 0 {
		t.Fatalf("completions=%d errors=%d", app.TotalCompletions(), app.TotalErrors())
	}
	if n := inFlight(app); n != 0 {
		t.Fatalf("in flight after completion = %d", n)
	}
}

func TestQueriesHitDBTier(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.QueriesPerRequest = 3
	eng, app := newApp(t, cfg)
	for i := 0; i < 4; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	db := app.Members(TierDB)[0].Server()
	if got := db.TakeSample().Completions; got != 12 {
		t.Fatalf("db bursts = %d, want 4 requests x 3 queries", got)
	}
}

func TestZeroQueriesSkipsDB(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.QueriesPerRequest = 0
	eng, app := newApp(t, cfg)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if app.TotalCompletions() != 1 {
		t.Fatal("request did not complete")
	}
	if got := app.Members(TierDB)[0].Server().TakeSample().Completions; got != 0 {
		t.Fatalf("db bursts = %d, want 0", got)
	}
}

func TestConnPoolBoundsDBConcurrency(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppThreads = 20
	cfg.DBConnsPerApp = 3
	eng, app := newApp(t, cfg)
	db := app.Members(TierDB)[0].Server()
	peak := 0
	stop := eng.Ticker(time.Millisecond, func() {
		if db.Active() > peak {
			peak = db.Active()
		}
	})
	defer stop()
	for i := 0; i < 50; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("db concurrency %d exceeded conn pool bound 3", peak)
	}
	if app.TotalCompletions() != 50 {
		t.Fatalf("completions = %d", app.TotalCompletions())
	}
}

func TestAddServerSpreadsLoad(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	if _, err := app.AddMember(TierApp, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := app.Members(TierApp)
	a, b := m[0].Server().TakeSample().Completions, m[1].Server().TakeSample().Completions
	if a != 10 || b != 10 {
		t.Fatalf("round robin split = %d/%d, want 10/10", a, b)
	}
}

func TestAddServerDuplicateName(t *testing.T) {
	t.Parallel()
	_, app := newApp(t, fastConfig())
	if _, err := app.AddMember(TierApp, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.AddMember(TierApp, "x"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := app.AddMember("ghost", ""); !errors.Is(err, graph.ErrUnknownNode) {
		t.Fatalf("unknown tier err = %v", err)
	}
}

func TestSoftResourceActuation(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppServers = 2
	_, app := newApp(t, cfg)
	if got := Allocation(app).String(); got != "50/10/10" {
		t.Fatalf("initial allocation = %q", got)
	}
	if err := app.SetNodeThreads(TierApp, 7); err != nil {
		t.Fatal(err)
	}
	if err := app.SetEdgePoolSize(TierApp, TierDB, 4); err != nil {
		t.Fatal(err)
	}
	if err := app.SetNodeThreads(TierWeb, 33); err != nil {
		t.Fatal(err)
	}
	for _, m := range app.Members(TierApp) {
		if n := m.Server().TakeSample().Size; n != 7 {
			t.Fatalf("app pool = %d", n)
		}
		if n := m.Pool().TakeSample().Size; n != 4 {
			t.Fatalf("conn pool = %d", n)
		}
	}
	if app.Members(TierWeb)[0].Server().TakeSample().Size != 33 {
		t.Fatal("web threads not applied")
	}
	if got := Allocation(app).String(); got != "33/7/4" {
		t.Fatalf("allocation = %q", got)
	}
	// New servers inherit the adjusted allocation.
	m, err := app.AddMember(TierApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Server().TakeSample().Size != 7 || m.Pool().TakeSample().Size != 4 {
		t.Fatal("new server did not inherit current allocation")
	}

	// A request below 1 is clamped to 1, and Allocation reports the clamp.
	if err := app.SetNodeThreads(TierApp, 0); err != nil {
		t.Fatal(err)
	}
	if err := app.SetEdgePoolSize(TierApp, TierDB, 0); err != nil {
		t.Fatal(err)
	}
	if got := Allocation(app).String(); got != "33/1/1" {
		t.Fatalf("clamped allocation = %q", got)
	}
	for _, m := range app.Members(TierApp) {
		if threads, conns := m.Server().TakeSample().Size, m.Pool().TakeSample().Size; threads != 1 || conns != 1 {
			t.Fatalf("%s: pools = %d/%d, want clamped 1/1", m.Name(), threads, conns)
		}
	}
	m, err = app.AddMember(TierApp, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Server().TakeSample().Size != 1 || m.Pool().TakeSample().Size != 1 {
		t.Fatal("new server did not inherit the clamped allocation")
	}
}

func TestSetAllocation(t *testing.T) {
	t.Parallel()
	_, app := newApp(t, fastConfig())
	target := model.Allocation{WebThreadsPerServer: 500, AppThreadsPerServer: 20, DBConnsPerAppServer: 36}
	SetAllocation(app, target)
	if got := Allocation(app); got != target {
		t.Fatalf("allocation = %v, want %v", got, target)
	}
	// Idempotent: applying the same target is a no-op.
	SetAllocation(app, target)
	if got := Allocation(app); got != target {
		t.Fatalf("reapplied allocation = %v, want %v", got, target)
	}
	// Zero fields leave the knob untouched.
	SetAllocation(app, model.Allocation{AppThreadsPerServer: 25})
	got := Allocation(app)
	if got.AppThreadsPerServer != 25 || got.WebThreadsPerServer != 500 || got.DBConnsPerAppServer != 36 {
		t.Fatalf("partial apply = %v", got)
	}
}

func TestDrainAndRemove(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppServers = 2
	eng, app := newApp(t, cfg)
	for i := 0; i < 10; i++ {
		app.Inject(nil)
	}
	drained := false
	if err := app.StartDrain(TierApp, "app-2", func() { drained = true }); err != nil {
		t.Fatal(err)
	}
	// Removing while still busy must fail.
	target, err := app.Member(TierApp, "app-2")
	if err != nil {
		t.Fatal(err)
	}
	if target.Server().Active() > 0 {
		if err := app.RemoveMember(TierApp, "app-2"); err == nil {
			t.Fatal("removed a busy server")
		}
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("drain callback never fired")
	}
	if err := app.RemoveMember(TierApp, "app-2"); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(TierApp) != 1 {
		t.Fatalf("server count = %d", app.MemberCount(TierApp))
	}
	// Traffic continues on the remaining server.
	app.Inject(nil)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.TotalCompletions() != 11 {
		t.Fatalf("completions = %d", app.TotalCompletions())
	}
}

func TestDrainLastServerRejected(t *testing.T) {
	t.Parallel()
	_, app := newApp(t, fastConfig())
	if err := app.StartDrain(TierApp, "app-1", nil); !errors.Is(err, graph.ErrLastMember) {
		t.Fatalf("err = %v, want graph.ErrLastMember", err)
	}
}

func TestRemoveAcceptingServerRejected(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.DBServers = 2
	_, app := newApp(t, cfg)
	if err := app.RemoveMember(TierDB, "db-1"); err == nil {
		t.Fatal("removed an accepting server without drain")
	}
}

func TestMemberLookupErrors(t *testing.T) {
	t.Parallel()
	_, app := newApp(t, fastConfig())
	if _, err := app.Member(TierApp, "nope"); !errors.Is(err, graph.ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
	if _, err := app.Member("ghost", "x"); !errors.Is(err, graph.ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if app.Members("ghost") != nil {
		t.Fatal("Members on unknown tier returned data")
	}
	if app.MemberCount("ghost") != 0 {
		t.Fatal("MemberCount on unknown tier nonzero")
	}
}

func TestTakeStats(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	for i := 0; i < 5; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	st := app.TakeStats()
	if st.Completions != 5 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanRTSeconds <= 0 || st.RT.Count != 5 {
		t.Fatalf("rt stats = %+v", st)
	}
	st2 := app.TakeStats()
	if st2.Completions != 0 || st2.RT.Count != 0 {
		t.Fatalf("interval not reset: %+v", st2)
	}
}

// TestSteadyStateThroughputMatchesCalibration verifies the headline
// calibration: a saturated 1/1/1 system with the optimal 1000/20/80
// allocation sustains ≈946 req/s (Table I's Tomcat X_max), and the default
// 1000/100/80 allocation is substantially slower — the §II motivation.
func TestSteadyStateThroughputMatchesCalibration(t *testing.T) {
	t.Parallel()
	measure := func(appThreads int) float64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.AppThreads = appThreads
		app, err := New(eng, rng.New(7).Split("app"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Closed loop: appThreads users with zero think time.
		var cycle func()
		cycle = func() { app.Inject(func(time.Duration, bool) { cycle() }) }
		for i := 0; i < appThreads; i++ {
			eng.Schedule(time.Duration(i)*time.Millisecond, cycle)
		}
		if err := eng.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		before := app.TotalCompletions()
		if err := eng.Run(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		return float64(app.TotalCompletions()-before) / 10.0
	}
	optimal := measure(20)
	defaultX := measure(100)
	if optimal < 780 || optimal > 950 {
		t.Fatalf("optimal-allocation throughput = %.0f, want ~850 (calibrated Table I X_max)", optimal)
	}
	if defaultX >= optimal {
		t.Fatalf("default allocation (%.0f) not slower than optimal (%.0f)", defaultX, optimal)
	}
	if gain := optimal / defaultX; gain < 1.2 {
		t.Fatalf("gain over default = %.2fx, want >= 1.2x (paper reports ~1.3x)", gain)
	}
}
