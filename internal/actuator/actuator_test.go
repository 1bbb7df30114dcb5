package actuator

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/cloud"
	"dcm/internal/graph"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// fakeMon records attach/detach calls.
type fakeMon struct {
	attached map[string]string
	detached []string
	failNext bool
}

func (f *fakeMon) Attach(tier, vm string) error {
	if f.failNext {
		f.failNext = false
		return errors.New("boom")
	}
	if f.attached == nil {
		f.attached = map[string]string{}
	}
	f.attached[vm] = tier
	return nil
}

func (f *fakeMon) Detach(vm string) { f.detached = append(f.detached, vm) }

var _ AgentMonitor = (*fakeMon)(nil)

func setup(t *testing.T) (*sim.Engine, *cloud.Hypervisor, *graph.App, *fakeMon, *VMAgent) {
	t.Helper()
	eng := sim.NewEngine()
	hv := cloud.NewHypervisor(eng, 15*time.Second)
	cfg := ntier.DefaultConfig()
	cfg.AppThreads = 10
	cfg.DBConnsPerApp = 10
	app, err := ntier.New(eng, rng.New(1).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon := &fakeMon{}
	va, err := NewVMAgent(eng, hv, app, mon)
	if err != nil {
		t.Fatal(err)
	}
	return eng, hv, app, mon, va
}

func TestNewAgentsValidation(t *testing.T) {
	t.Parallel()
	_, hv, app, _, _ := setup(t)
	if _, err := NewVMAgent(nil, hv, app, nil); !errors.Is(err, ErrBadAgent) {
		t.Fatalf("err = %v", err)
	}
}

func TestScaleOutJoinsAfterPrep(t *testing.T) {
	t.Parallel()
	eng, _, app, mon, va := setup(t)
	name, err := va.ScaleOut(ntier.TierApp)
	if err != nil {
		t.Fatal(err)
	}
	if va.Pending(ntier.TierApp) != 1 {
		t.Fatalf("pending = %d", va.Pending(ntier.TierApp))
	}
	if app.MemberCount(ntier.TierApp) != 1 {
		t.Fatal("server joined before preparation period")
	}
	if err := eng.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) != 1 {
		t.Fatal("server joined early")
	}
	if err := eng.Run(16 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) != 2 {
		t.Fatal("server did not join after prep")
	}
	if va.Pending(ntier.TierApp) != 0 {
		t.Fatalf("pending after join = %d", va.Pending(ntier.TierApp))
	}
	if mon.attached[name] != ntier.TierApp {
		t.Fatalf("monitor not attached: %v", mon.attached)
	}
	// New server inherits the current soft allocation.
	m, err := app.Member(ntier.TierApp, name)
	if err != nil {
		t.Fatal(err)
	}
	if m.Server().TakeSample().Size != 10 || m.Pool().TakeSample().Size != 10 {
		t.Fatal("new server has wrong soft allocation")
	}
}

func TestScaleInDrainsThenRemoves(t *testing.T) {
	t.Parallel()
	eng, hv, app, mon, va := setup(t)
	if _, err := va.ScaleOut(ntier.TierApp); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if serving(va, ntier.TierApp) != 2 {
		t.Fatalf("serving = %d", serving(va, ntier.TierApp))
	}
	victim, err := va.ScaleIn(ntier.TierApp)
	if err != nil {
		t.Fatal(err)
	}
	// Newest server is the victim.
	if victim != "app-2" {
		t.Fatalf("victim = %q, want app-2 (newest)", victim)
	}
	if serving(va, ntier.TierApp) != 1 {
		t.Fatalf("serving during drain = %d", serving(va, ntier.TierApp))
	}
	if err := eng.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) != 1 {
		t.Fatalf("server count after drain = %d", app.MemberCount(ntier.TierApp))
	}
	if len(mon.detached) != 1 || mon.detached[0] != victim {
		t.Fatalf("monitor detach = %v", mon.detached)
	}
	vm, err := hv.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != cloud.StateTerminated {
		t.Fatalf("vm state = %v", vm.State())
	}
}

func TestScaleInWaitsForInFlight(t *testing.T) {
	t.Parallel()
	eng, _, app, _, va := setup(t)
	if _, err := va.ScaleOut(ntier.TierApp); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Load both servers continuously.
	var cycle func()
	cycle = func() { app.Inject(func(time.Duration, bool) { cycle() }) }
	for i := 0; i < 8; i++ {
		cycle()
	}
	if err := eng.Run(21 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := va.ScaleIn(ntier.TierApp); err != nil {
		t.Fatal(err)
	}
	// The victim finishes its requests; all requests complete eventually
	// and the survivor keeps serving.
	if err := eng.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) != 1 {
		t.Fatal("victim not removed after drain")
	}
	if app.TotalErrors() != 0 {
		t.Fatalf("errors during scale-in = %d", app.TotalErrors())
	}
	if app.TotalCompletions() == 0 {
		t.Fatal("no requests completed")
	}
}

func TestScaleInLastServerFails(t *testing.T) {
	t.Parallel()
	_, _, _, _, va := setup(t)
	if _, err := va.ScaleIn(ntier.TierApp); err == nil {
		t.Fatal("scaled in the last server")
	}
}

func TestScaleOutRecordsAudit(t *testing.T) {
	t.Parallel()
	eng, _, _, _, va := setup(t)
	if _, err := va.ScaleOut(ntier.TierDB); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	recs := va.Records()
	if len(recs) != 2 || recs[0].Kind != "launch" || recs[1].Kind != "ready" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[1].At != 15*time.Second {
		t.Fatalf("ready at %v", recs[1].At)
	}
}

func TestMonitorAttachFailureRecorded(t *testing.T) {
	t.Parallel()
	eng, _, _, mon, va := setup(t)
	mon.failNext = true
	if _, err := va.ScaleOut(ntier.TierApp); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	recs := va.Records()
	last := recs[len(recs)-1]
	if last.Detail == "" {
		t.Fatalf("attach failure not recorded: %+v", recs)
	}
}

func TestLaunchCrashRetriesWithBackoff(t *testing.T) {
	t.Parallel()
	eng, hv, app, _, va := setup(t)
	name, err := va.ScaleOut(ntier.TierApp)
	if err != nil {
		t.Fatal(err)
	}
	// Crash the instance 5s into its 15s preparation period.
	eng.Schedule(5*time.Second, func() {
		vm, err := hv.Get(name)
		if err != nil {
			t.Error(err)
			return
		}
		if err := hv.Crash(vm); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Crash at 5s, first retry backoff 2s, relaunch at 7s, ready at 22s.
	// The app seeds one server per tier, so the joined retry makes 2.
	if got := app.MemberCount(ntier.TierApp); got != 2 {
		t.Fatalf("app servers = %d, want 2 (retried launch joined)", got)
	}
	if va.Pending(ntier.TierApp) != 0 {
		t.Fatalf("pending = %d after retry completed", va.Pending(ntier.TierApp))
	}
	var kinds []string
	for _, r := range va.Records() {
		kinds = append(kinds, r.Kind)
	}
	want := []string{"launch", "crash", "launch", "ready"}
	if len(kinds) != len(want) {
		t.Fatalf("record kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record kinds = %v, want %v", kinds, want)
		}
	}
}

func TestLaunchWatchdogAbandonsSlowBoot(t *testing.T) {
	t.Parallel()
	eng, hv, app, _, va := setup(t)
	// Launches take 10x the prep period: the 4x watchdog must fire first,
	// terminate the stuck instance and relaunch. The retry boots after the
	// slow-boot window has been repaired, so it succeeds.
	hv.SetPrepFactor(10)
	eng.Schedule(70*time.Second, func() { hv.SetPrepFactor(1) })
	name, err := va.ScaleOut(ntier.TierApp)
	if err != nil {
		t.Fatal(err)
	}
	// Watchdog at 60s, retry at 62s — still slow-booting, so a second
	// watchdog cycle fires at 122s and the next retry (126s, repaired)
	// boots normally and joins at 141s.
	if err := eng.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	vm, err := hv.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != cloud.StateTerminated {
		t.Fatalf("abandoned instance state = %v, want terminated", vm.State())
	}
	// The retried instance must be serving by the end, next to the seed
	// server.
	if got := app.MemberCount(ntier.TierApp); got != 2 {
		t.Fatalf("app servers = %d, want 2", got)
	}
	sawTimeout := false
	for _, r := range va.Records() {
		if r.Kind == "timeout" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("no watchdog timeout record")
	}
}

func TestLaunchGivesUpAfterMaxRetries(t *testing.T) {
	t.Parallel()
	eng, hv, app, _, va := setup(t)
	if _, err := va.ScaleOut(ntier.TierApp); err != nil {
		t.Fatal(err)
	}
	// Crash every instance the moment it starts provisioning.
	hv.OnCrash(func(*cloud.VM) {})
	crashAll := func() {
		for _, vm := range hv.Live(ntier.TierApp) {
			if vm.State() == cloud.StateProvisioning {
				_ = hv.Crash(vm)
			}
		}
	}
	stop := eng.Ticker(time.Second, crashAll)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	stop()
	if got := app.MemberCount(ntier.TierApp); got != 1 {
		t.Fatalf("app servers = %d, want 1 (only the seed server; every launch crashed)", got)
	}
	if va.Pending(ntier.TierApp) != 0 {
		t.Fatalf("pending = %d after give-up", va.Pending(ntier.TierApp))
	}
	gaveUp := false
	for _, r := range va.Records() {
		if r.Kind == "give-up" {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("no give-up record after exhausting retries: %+v", va.Records())
	}
}

func TestServingCrashTearsDownServer(t *testing.T) {
	t.Parallel()
	eng, hv, app, mon, va := setup(t)
	name, err := va.ScaleOut(ntier.TierApp)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(ntier.TierApp) != 2 {
		t.Fatal("server never joined")
	}
	vm, err := hv.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Crash(vm); err != nil {
		t.Fatal(err)
	}
	if got := app.MemberCount(ntier.TierApp); got != 1 {
		t.Fatalf("app servers = %d after serving crash, want 1", got)
	}
	if len(mon.detached) != 1 || mon.detached[0] != name {
		t.Fatalf("monitor detach calls = %v", mon.detached)
	}
	// The census — not the VM-agent — drives re-provisioning of serving
	// crashes: no retry launch may appear.
	if va.Pending(ntier.TierApp) != 0 {
		t.Fatalf("pending = %d, serving crash must not auto-relaunch", va.Pending(ntier.TierApp))
	}
}

// serving counts the accepting servers in tier.
func serving(va *VMAgent, tier string) int {
	n := 0
	for _, m := range va.app.Members(tier) {
		if m.Accepting() {
			n++
		}
	}
	return n
}
