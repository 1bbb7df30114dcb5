package core

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/cloud"
	"dcm/internal/controller"
	"dcm/internal/graph"
	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/workload"
)

func newSystem(t *testing.T, ctrl controller.Controller) (*sim.Engine, *graph.App, *Framework) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ntier.DefaultConfig()
	app, err := ntier.New(eng, rng.New(3).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(eng, app, ctrl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, app, fw
}

func dcmController(t *testing.T) *controller.DCM {
	t.Helper()
	tomcat, mysql := model.TableI()
	c, err := controller.NewDCM(controller.DCMConfig{
		Policy:      controller.DefaultPolicy(),
		TomcatModel: tomcat,
		MySQLModel:  mysql,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ec2Controller(t *testing.T) *controller.EC2AutoScale {
	t.Helper()
	c, err := controller.NewEC2AutoScale(controller.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// viewRecorder wraps a controller and keeps every view the framework asks
// it to evaluate.
type viewRecorder struct {
	controller.Controller
	views []controller.SystemView
}

func (r *viewRecorder) Evaluate(view controller.SystemView) []controller.Action {
	r.views = append(r.views, view)
	return r.Controller.Evaluate(view)
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	app, err := ntier.New(eng, rng.New(1).Split("a"), ntier.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, app, ec2Controller(t), Config{}); !errors.Is(err, ErrBadFramework) {
		t.Fatalf("nil engine: %v", err)
	}
	if _, err := New(eng, app, nil, Config{}); !errors.Is(err, ErrBadFramework) {
		t.Fatalf("nil controller: %v", err)
	}
}

func TestViewReflectsIdleSystem(t *testing.T) {
	t.Parallel()
	rec := &viewRecorder{Controller: ec2Controller(t)}
	eng, _, fw := newSystem(t, rec)
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	hist := rec.views
	if len(hist) != 2 {
		t.Fatalf("history = %d views, want 2 (15s period over 31s)", len(hist))
	}
	v := hist[1]
	for _, tierName := range ntier.Tiers() {
		ts := v.Tiers[tierName]
		if ts.Ready != 1 || ts.Live != 1 {
			t.Fatalf("%s counts = %+v", tierName, ts)
		}
		if ts.MeanCPU > 0.01 {
			t.Fatalf("%s cpu on idle system = %v", tierName, ts.MeanCPU)
		}
	}
	if len(fw.Actions()) != 0 {
		t.Fatalf("idle system triggered actions: %+v", fw.Actions())
	}
}

func TestDCMAppliesOptimalAllocationAtFirstPeriod(t *testing.T) {
	t.Parallel()
	eng, app, fw := newSystem(t, dcmController(t))
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(16 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Table I models on 1/1/1: 1000/20/36.
	want := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 20, DBConnsPerAppServer: 36}
	if got := ntier.Allocation(app); got != want {
		t.Fatalf("allocation after first period = %v, want %v", got, want)
	}
	var allocations int
	for _, rec := range fw.Actions() {
		if rec.Action.Type == controller.ActionSetAllocation {
			allocations++
		}
	}
	if allocations == 0 {
		t.Fatalf("no allocation action dispatched: %+v", fw.Actions())
	}
}

func TestHotSystemScalesOutAndJoins(t *testing.T) {
	t.Parallel()
	rec := &viewRecorder{Controller: ec2Controller(t)}
	eng, app, fw := newSystem(t, rec)
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	// Saturating closed loop: 400 users, zero think — far beyond one
	// app server's capacity, so app CPU pegs at 100%.
	wl, err := workload.NewClosedLoop(eng, rng.New(5).Split("wl"), app, workload.ClosedLoopConfig{
		Users: 400, ThinkTime: 0, Stagger: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	if err := eng.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var sawScaleOut bool
	for _, rec := range fw.Actions() {
		if rec.Action.Type == controller.ActionScaleOut && rec.Err == "" {
			sawScaleOut = true
		}
	}
	if !sawScaleOut {
		t.Fatalf("no scale-out under saturation; actions = %+v", fw.Actions())
	}
	if app.MemberCount(ntier.TierApp) < 2 {
		t.Fatalf("app servers = %d, want >= 2", app.MemberCount(ntier.TierApp))
	}
	// The new server must appear in Ready counts of a later view.
	hist := rec.views
	last := hist[len(hist)-1]
	if last.Tiers[ntier.TierApp].Ready < 2 {
		t.Fatalf("last view ready = %d", last.Tiers[ntier.TierApp].Ready)
	}
}

func TestQuietSystemScalesBackIn(t *testing.T) {
	t.Parallel()
	eng, app, fw := newSystem(t, ec2Controller(t))
	// Pre-add a second app server so there is something to remove.
	if _, err := app.AddMember(ntier.TierApp, ""); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	// Light load: CPU stays below the 40% lower bound.
	wl, err := workload.NewClosedLoop(eng, rng.New(6).Split("wl"), app, workload.ClosedLoopConfig{
		Users: 20, ThinkTime: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	// 3 consecutive low periods needed: scale-in decision at the 3rd
	// period (45s), drain completes shortly after.
	if err := eng.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) != 1 {
		t.Fatalf("app servers = %d, want scale-in to 1", app.MemberCount(ntier.TierApp))
	}
	var sawScaleIn bool
	for _, rec := range fw.Actions() {
		if rec.Action.Type == controller.ActionScaleIn && rec.Err == "" {
			sawScaleIn = true
		}
	}
	if !sawScaleIn {
		t.Fatalf("no scale-in recorded: %+v", fw.Actions())
	}
}

func TestStartStopIdempotent(t *testing.T) {
	t.Parallel()
	rec := &viewRecorder{Controller: ec2Controller(t)}
	eng, _, fw := newSystem(t, rec)
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rec.views) != 2 {
		t.Fatalf("double start duplicated control loop: %d views", len(rec.views))
	}
	fw.Stop()
	if err := eng.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(rec.views) != 2 {
		t.Fatal("control loop ran after Stop")
	}
}

func TestAccessors(t *testing.T) {
	t.Parallel()
	_, _, fw := newSystem(t, ec2Controller(t))
	if fw.Bus() == nil || fw.Hypervisor() == nil || fw.Fleet() == nil ||
		fw.VMAgent() == nil {
		t.Fatal("nil accessor")
	}
}

// TestControllerReplacesCrashedServer injects a crash mid-run: the
// survivor saturates, its CPU crosses the threshold, and the VM-level
// controller launches a replacement — self-healing without any dedicated
// failure-handling code.
func TestControllerReplacesCrashedServer(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	cfg := ntier.DefaultConfig()
	// The optimal 20-thread allocation caps a server's concurrency at its
	// efficient point, so per-server capacity is the ~850 req/s saturated
	// figure and a crashed peer genuinely overloads the survivor.
	cfg.AppThreads = 20
	cfg.DBConnsPerApp = 18
	cfg.AppServers = 2
	app, err := ntier.New(eng, rng.New(3).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scale-in is irrelevant to this test; disable it so the pre-crash
	// half-idle fleet is not torn down first. The DB tier is pinned so the
	// app tier's capacity constraint stays put (a scaled-out MySQL makes
	// Tomcat threads so quick to turn around that one server could absorb
	// everything).
	policy := controller.DefaultPolicy()
	policy.LowerConsecutive = 100
	policy.ScalableTiers = []string{ntier.TierApp}
	ctrl, err := controller.NewEC2AutoScale(policy)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(eng, app, ctrl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	// Demand ~930 req/s: comfortable for two servers, saturating for one.
	wl, err := workload.NewClosedLoop(eng, rng.New(8).Split("wl"), app, workload.ClosedLoopConfig{
		Users: 2800, ThinkTime: 3 * time.Second, Stagger: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	eng.Schedule(40*time.Second, func() {
		if err := app.FailMember(ntier.TierApp, "app-2"); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	if err := eng.Run(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) < 2 {
		t.Fatalf("controller did not replace the crashed server: %d app servers",
			app.MemberCount(ntier.TierApp))
	}
	var sawScaleOut bool
	for _, rec := range fw.Actions() {
		if rec.Action.Type == controller.ActionScaleOut && rec.Action.Tier == ntier.TierApp &&
			rec.At > 40*time.Second && rec.Err == "" {
			sawScaleOut = true
		}
	}
	if !sawScaleOut {
		t.Fatalf("no post-crash scale-out: %+v", fw.Actions())
	}
}

func TestFrameworkAdoptsSeedServers(t *testing.T) {
	t.Parallel()
	_, app, fw := newSystem(t, dcmController(t))
	// Every seed server must be hypervisor-visible so the crash census
	// covers it like scaled-out capacity.
	for _, tierName := range ntier.Tiers() {
		for _, m := range app.Members(tierName) {
			vm, err := fw.Hypervisor().Get(m.Name())
			if err != nil {
				t.Fatalf("seed server %s not adopted: %v", m.Name(), err)
			}
			if vm.State() != cloud.StateReady {
				t.Fatalf("adopted %s state = %v", m.Name(), vm.State())
			}
		}
	}
}
