package chaos

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"dcm/internal/bus"
	"dcm/internal/cloud"
	"dcm/internal/graph"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func TestScheduleValidation(t *testing.T) {
	t.Parallel()
	bad := []Schedule{
		{Name: "empty"},
		{Name: "negative-at", Faults: []Fault{{Kind: KindVMCrash, At: -time.Second, Tier: "app"}}},
		{Name: "crash-no-target", Faults: []Fault{{Kind: KindVMCrash, At: 0}}},
		{Name: "slow-boot-no-factor", Faults: []Fault{{Kind: KindSlowBoot, At: 0, Duration: time.Minute}}},
		{Name: "slow-boot-no-window", Faults: []Fault{{Kind: KindSlowBoot, At: 0, Factor: 2}}},
		{Name: "degrade-no-tier", Faults: []Fault{{Kind: KindDegrade, At: 0, Factor: 2, Duration: time.Minute}}},
		{Name: "degrade-speedup", Faults: []Fault{{Kind: KindDegrade, At: 0, Tier: "app", Factor: 0.5, Duration: time.Minute}}},
		{Name: "leak-wrong-tier", Faults: []Fault{{Kind: KindConnLeak, At: 0, Tier: "db", Count: 1}}},
		{Name: "leak-no-count", Faults: []Fault{{Kind: KindConnLeak, At: 0}}},
		{Name: "blackout-no-window", Faults: []Fault{{Kind: KindBlackout, At: 0}}},
		{Name: "unknown-kind", Faults: []Fault{{Kind: "meteor-strike", At: 0}}},
	}
	for _, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("%s: err = %v, want ErrBadSchedule", s.Name, err)
		}
	}
	good := Schedule{Name: "ok", Faults: []Fault{
		{Kind: KindVMCrash, At: time.Minute, Tier: ntier.TierApp},
		{Kind: KindSlowBoot, At: 0, Duration: time.Minute, Factor: 2},
		{Kind: KindDegrade, At: 0, Tier: ntier.TierApp, Factor: 2, Duration: time.Minute},
		{Kind: KindConnLeak, At: 0, Count: 10, Duration: time.Minute},
		{Kind: KindBlackout, At: 0, Duration: time.Minute},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	t.Parallel()
	want := Schedule{Name: "rt", Faults: []Fault{
		{Kind: KindVMCrash, At: 4 * time.Minute, Tier: ntier.TierApp},
		{Kind: KindSlowBoot, At: 40 * time.Second, Duration: 3 * time.Minute, Factor: 4},
		{Kind: KindConnLeak, At: 90 * time.Second, Count: 60},
	}}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseHumanReadableDurations(t *testing.T) {
	t.Parallel()
	s, err := Parse([]byte(`{
		"name": "file",
		"faults": [
			{"kind": "monitor-blackout", "at": "3m30s", "duration": "45s"},
			{"kind": "degraded-server", "at": "1m", "duration": "2m", "tier": "app", "factor": 3}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults[0].At != 210*time.Second || s.Faults[0].Duration != 45*time.Second {
		t.Fatalf("parsed fault 0 = %+v", s.Faults[0])
	}
	if _, err := Parse([]byte(`{"name":"bad","faults":[{"kind":"vm-crash","at":"soon","tier":"app"}]}`)); err == nil {
		t.Fatal("bad duration accepted")
	}
	if _, err := Parse([]byte(`{"name":"bad","faults":[{"kind":"vm-crash","at":"10s"}]}`)); !errors.Is(err, ErrBadSchedule) {
		t.Fatal("invalid schedule accepted")
	}
}

func TestBuiltinsAreValid(t *testing.T) {
	t.Parallel()
	names := BuiltinNames()
	if len(names) == 0 {
		t.Fatal("no builtin scenarios")
	}
	for _, name := range names {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("builtin %s has Name %q", name, s.Name)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// harness builds a minimal topology for injector tests: a 1/1/1 app, a
// hypervisor with the seed servers adopted, and a monitoring fleet.
func harness(t *testing.T) (*sim.Engine, *graph.App, *cloud.Hypervisor, *monitor.Fleet) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ntier.DefaultConfig()
	cfg.AppThreads = 10
	cfg.DBConnsPerApp = 10
	app, err := ntier.New(eng, rng.New(7).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hv := cloud.NewHypervisor(eng, 15*time.Second)
	for _, tierName := range ntier.Tiers() {
		for _, m := range app.Members(tierName) {
			if _, err := hv.Adopt(m.Name(), tierName); err != nil {
				t.Fatal(err)
			}
		}
	}
	fleet, err := monitor.NewFleet(eng, bus.New(), app, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return eng, app, hv, fleet
}

func install(t *testing.T, eng *sim.Engine, app *graph.App, hv *cloud.Hypervisor, fleet *monitor.Fleet, seed uint64, s Schedule) *Injector {
	t.Helper()
	in, err := NewInjector(eng, rng.New(seed), app, hv, fleet, s)
	if err != nil {
		t.Fatal(err)
	}
	in.Install()
	return in
}

func TestInjectVMCrash(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	s := Schedule{Name: "crash", Faults: []Fault{
		{Kind: KindVMCrash, At: 10 * time.Second, Tier: ntier.TierApp},
	}}
	in := install(t, eng, app, hv, fleet, 1, s)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := hv.CountCrashedServing(ntier.TierApp); got != 1 {
		t.Fatalf("CountCrashedServing = %d", got)
	}
	log := in.Log()
	if len(log) != 1 || log[0].Skipped || log[0].Target != "app-1" {
		t.Fatalf("injection log = %+v", log)
	}
	if log[0].At != 10*time.Second {
		t.Fatalf("injection at %v", log[0].At)
	}
}

func TestInjectVMCrashExplicitVictim(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	s := Schedule{Name: "crash", Faults: []Fault{
		{Kind: KindVMCrash, At: time.Second, VM: "db-1"},
	}}
	install(t, eng, app, hv, fleet, 1, s)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	vm, err := hv.Get("db-1")
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != cloud.StateCrashed {
		t.Fatalf("db-1 state = %v", vm.State())
	}
}

func TestInjectSlowBootWindow(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	s := Schedule{Name: "slow", Faults: []Fault{
		{Kind: KindSlowBoot, At: 10 * time.Second, Duration: 20 * time.Second, Factor: 4},
	}}
	install(t, eng, app, hv, fleet, 1, s)
	factors := map[int]float64{}
	for _, sec := range []int{5, 15, 35} {
		sec := sec
		eng.Schedule(time.Duration(sec)*time.Second, func() { factors[sec] = hv.PrepFactor() })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if factors[5] != 1 || factors[15] != 4 || factors[35] != 1 {
		t.Fatalf("prep factors over time = %v", factors)
	}
}

func TestInjectDegradeWindow(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	s := Schedule{Name: "degrade", Faults: []Fault{
		{Kind: KindDegrade, At: 10 * time.Second, Duration: 20 * time.Second, Tier: ntier.TierApp, Factor: 3},
	}}
	install(t, eng, app, hv, fleet, 1, s)
	srv := app.Members(ntier.TierApp)[0].Server()
	factors := map[int]float64{}
	for _, sec := range []int{5, 15, 35} {
		sec := sec
		eng.Schedule(time.Duration(sec)*time.Second, func() { factors[sec] = srv.DegradeFactor() })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if factors[5] != 1 || factors[15] != 3 || factors[35] != 1 {
		t.Fatalf("degrade factors over time = %v", factors)
	}
}

func TestInjectConnLeakWindow(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	s := Schedule{Name: "leak", Faults: []Fault{
		{Kind: KindConnLeak, At: 10 * time.Second, Duration: 20 * time.Second, Count: 6},
	}}
	install(t, eng, app, hv, fleet, 1, s)
	pool := app.Members(ntier.TierApp)[0].Pool()
	leaked := map[int]int{}
	for _, sec := range []int{5, 15, 35} {
		sec := sec
		eng.Schedule(time.Duration(sec)*time.Second, func() { leaked[sec] = pool.TakeSample().Leaked })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if leaked[5] != 0 || leaked[15] != 6 || leaked[35] != 0 {
		t.Fatalf("leaked over time = %v", leaked)
	}
}

func TestInjectConnLeakPermanent(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	s := Schedule{Name: "leak", Faults: []Fault{
		{Kind: KindConnLeak, At: 10 * time.Second, Count: 4}, // no Duration: never repaired
	}}
	install(t, eng, app, hv, fleet, 1, s)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := app.Members(ntier.TierApp)[0].Pool().TakeSample().Leaked; got != 4 {
		t.Fatalf("leaked = %d at end of run", got)
	}
}

func TestInjectBlackoutNests(t *testing.T) {
	t.Parallel()
	eng, app, hv, fleet := harness(t)
	// Two overlapping windows: 10..30 and 20..40. Monitoring must stay
	// dark until the LAST window closes.
	s := Schedule{Name: "dark", Faults: []Fault{
		{Kind: KindBlackout, At: 10 * time.Second, Duration: 20 * time.Second},
		{Kind: KindBlackout, At: 20 * time.Second, Duration: 20 * time.Second},
	}}
	install(t, eng, app, hv, fleet, 1, s)
	dark := map[int]bool{}
	for _, sec := range []int{5, 15, 25, 35, 45} {
		sec := sec
		eng.Schedule(time.Duration(sec)*time.Second, func() { dark[sec] = fleet.Blackout() })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{5: false, 15: true, 25: true, 35: true, 45: false}
	if !reflect.DeepEqual(dark, want) {
		t.Fatalf("blackout over time = %v, want %v", dark, want)
	}
}

func TestInjectorDeterministicVictims(t *testing.T) {
	t.Parallel()
	// Three ready app VMs; a tier-targeted crash must pick the same victim
	// for the same seed, across fresh topologies.
	run := func(seed uint64) []Injection {
		eng, app, hv, fleet := harness(t)
		for _, name := range []string{"app-2", "app-3"} {
			name := name
			if _, err := hv.Launch(name, ntier.TierApp, func(*cloud.VM) {
				if _, err := app.AddMember(ntier.TierApp, name); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		s := Schedule{Name: "crash", Faults: []Fault{
			{Kind: KindVMCrash, At: 30 * time.Second, Tier: ntier.TierApp},
		}}
		in := install(t, eng, app, hv, fleet, seed, s)
		if err := eng.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return in.Log()
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different injections:\n %+v\n %+v", a, b)
	}
	if a[0].Skipped {
		t.Fatalf("injection skipped: %+v", a[0])
	}
}

func TestAnalyzeRecovery(t *testing.T) {
	t.Parallel()
	// Synthetic run: steady 100 req/s, dip to 20 during seconds 50..64,
	// back to 100 from 65 on. Fault at t=50.
	in := Input{
		Schedule: Schedule{Name: "synthetic", Faults: []Fault{
			{Kind: KindVMCrash, At: 50 * time.Second, Tier: ntier.TierApp},
		}},
	}
	for sec := 1; sec <= 120; sec++ {
		tp := 100.0
		if sec >= 50 && sec < 65 {
			tp = 20
		}
		rt := 0.1
		if sec >= 50 && sec < 60 {
			rt = 2.5 // ten seconds above the 1s SLO
		}
		in.Seconds = append(in.Seconds, float64(sec))
		in.Throughput = append(in.Throughput, tp)
		in.MeanRTSec = append(in.MeanRTSec, rt)
	}
	rep := Analyze(in)
	if len(rep.Faults) != 1 {
		t.Fatalf("fault reports = %d", len(rep.Faults))
	}
	fr := rep.Faults[0]
	if fr.BaselineThroughput != 100 {
		t.Fatalf("baseline = %v", fr.BaselineThroughput)
	}
	if !fr.Impacted || !fr.Recovered {
		t.Fatalf("impacted = %v, recovered = %v", fr.Impacted, fr.Recovered)
	}
	// Throughput returns at t=65 but the trailing 5s window still holds
	// dip seconds until t=69: TTR lands in (15, 25).
	if fr.TTRSeconds <= 15 || fr.TTRSeconds > 25 {
		t.Fatalf("TTR = %v s", fr.TTRSeconds)
	}
	if rep.SLOViolationSeconds != 10 {
		t.Fatalf("SLO violation seconds = %v", rep.SLOViolationSeconds)
	}
	if rep.BlindSeconds != 0 {
		t.Fatalf("blind seconds = %v", rep.BlindSeconds)
	}
}

func TestAnalyzeUnrecovered(t *testing.T) {
	t.Parallel()
	in := Input{
		Schedule: Schedule{Name: "dead", Faults: []Fault{
			{Kind: KindVMCrash, At: 30 * time.Second, Tier: ntier.TierApp},
		}},
	}
	for sec := 1; sec <= 90; sec++ {
		tp := 100.0
		if sec >= 30 {
			tp = 0 // never comes back
		}
		in.Seconds = append(in.Seconds, float64(sec))
		in.Throughput = append(in.Throughput, tp)
		in.MeanRTSec = append(in.MeanRTSec, 0.1)
	}
	rep := Analyze(in)
	fr := rep.Faults[0]
	if !fr.Impacted || fr.Recovered || fr.TTRSeconds != -1 {
		t.Fatalf("verdict = %+v", fr)
	}
}

// TestAnalyzeCountsFailingSeconds checks that a second which failed any
// request violates the SLO whatever its mean response time, counted once
// when it is also slow. From t=30 the tier has nothing left serving: no
// request completes, so the mean RT reads 0, and every one fails.
func TestAnalyzeCountsFailingSeconds(t *testing.T) {
	t.Parallel()
	in := Input{Schedule: Schedule{Name: "dead-tier", Faults: []Fault{
		{Kind: KindVMCrash, At: 30 * time.Second, Tier: ntier.TierApp},
	}}}
	for sec := 1; sec <= 90; sec++ {
		tp, rt, errs := 100.0, 0.1, 0.0
		if sec >= 20 && sec <= 24 {
			rt = 2.5 // five slow seconds
		}
		if sec >= 23 && sec <= 26 {
			errs = 3 // two of them also failing, then two more
		}
		if sec >= 30 {
			tp, rt, errs = 0, 0, 50 // 61 seconds failing everything
		}
		in.Seconds = append(in.Seconds, float64(sec))
		in.Throughput = append(in.Throughput, tp)
		in.MeanRTSec = append(in.MeanRTSec, rt)
		in.Errors = append(in.Errors, errs)
	}
	rep := Analyze(in)
	if want := 5.0 + 2 + 61; rep.SLOViolationSeconds != want {
		t.Fatalf("SLO violation seconds = %v, want %v", rep.SLOViolationSeconds, want)
	}
}

func TestAnalyzeBlindSeconds(t *testing.T) {
	t.Parallel()
	in := Input{Schedule: Schedule{Name: "dark", Faults: []Fault{
		{Kind: KindBlackout, At: 10 * time.Second, Duration: 20 * time.Second},
	}}}
	// 1s samples with a 20-second hole at 11..30.
	for sec := 1; sec <= 60; sec++ {
		if sec > 10 && sec <= 30 {
			continue
		}
		in.Seconds = append(in.Seconds, float64(sec))
		in.Throughput = append(in.Throughput, 100)
		in.MeanRTSec = append(in.MeanRTSec, 0.1)
	}
	rep := Analyze(in)
	if rep.BlindSeconds != 20 {
		t.Fatalf("blind seconds = %v, want 20", rep.BlindSeconds)
	}
}
