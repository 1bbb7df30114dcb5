package controller

import (
	"errors"
	"testing"

	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/policy"
)

// view builds a SystemView with the given per-tier CPU and counts.
func view(appCPU, dbCPU float64, appReady, appLive, dbReady, dbLive int, alloc model.Allocation) SystemView {
	return SystemView{
		Tiers: map[string]TierStats{
			ntier.TierWeb: {Tier: ntier.TierWeb, Ready: 1, Live: 1, MeanCPU: 0.2},
			ntier.TierApp: {Tier: ntier.TierApp, Ready: appReady, Live: appLive, MeanCPU: appCPU},
			ntier.TierDB:  {Tier: ntier.TierDB, Ready: dbReady, Live: dbLive, MeanCPU: dbCPU},
		},
		Allocation: alloc,
	}
}

func mustEC2(t *testing.T) *EC2AutoScale {
	t.Helper()
	c, err := NewEC2AutoScale(DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustDCM(t *testing.T) *DCM {
	t.Helper()
	tomcat, mysql := model.TableI()
	c, err := NewDCM(DCMConfig{
		Policy:      DefaultPolicy(),
		TomcatModel: tomcat,
		MySQLModel:  mysql,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func findAction(actions []Action, typ ActionType, tier string) *Action {
	for i := range actions {
		if actions[i].Type == typ && (tier == "" || actions[i].Tier == tier) {
			return &actions[i]
		}
	}
	return nil
}

func TestPolicyValidation(t *testing.T) {
	t.Parallel()
	bad := []func(*policy.ScalingRules){
		func(p *policy.ScalingRules) { p.UpperCPU = 0 },
		func(p *policy.ScalingRules) { p.UpperCPU = 1.5 },
		func(p *policy.ScalingRules) { p.LowerCPU = 0.9 },
		func(p *policy.ScalingRules) { p.LowerConsecutive = 0 },
		func(p *policy.ScalingRules) { p.MinServers = 0 },
		func(p *policy.ScalingRules) { p.MaxServers = 0 },
		func(p *policy.ScalingRules) { p.ScalableTiers = nil },
		func(p *policy.ScalingRules) { p.ScalableTiers = []string{ntier.TierApp, ""} },
		func(p *policy.ScalingRules) { p.ScalableTiers = []string{ntier.TierApp, ntier.TierApp} },
	}
	tomcat, mysql := model.TableI()
	for i, mutate := range bad {
		p := DefaultPolicy()
		mutate(&p)
		constructors := map[string]func() error{
			"ec2": func() error { _, err := NewEC2AutoScale(p); return err },
			"ec2-predictive": func() error {
				_, err := NewPredictiveEC2AutoScale(p)
				return err
			},
			"target-tracking": func() error {
				_, err := NewTargetTracking(p, policy.Default().Target)
				return err
			},
			"dcm": func() error {
				_, err := NewDCM(DCMConfig{Policy: p, TomcatModel: tomcat, MySQLModel: mysql})
				return err
			},
		}
		for name, build := range constructors {
			if err := build(); !errors.Is(err, policy.ErrBadRules) {
				t.Errorf("case %d, %s: err = %v, want policy.ErrBadRules", i, name, err)
			}
		}
	}
}

func TestNewDCMRejectsBadAllocation(t *testing.T) {
	t.Parallel()
	tomcat, mysql := model.TableI()
	cases := []struct {
		name   string
		mutate func(*policy.AllocationRules)
	}{
		{"zero headroom", func(a *policy.AllocationRules) { a.Headroom = 0 }},
		{"zero app floor", func(a *policy.AllocationRules) { a.AppThreadsFloor = 0 }},
		{"zero db floor", func(a *policy.AllocationRules) { a.DBConnsFloor = 0 }},
		{"app cap below floor", func(a *policy.AllocationRules) { a.AppThreadsFloor, a.AppThreadsCap = 5, 4 }},
		{"negative db cap", func(a *policy.AllocationRules) { a.DBConnsCap = -1 }},
	}
	for _, tc := range cases {
		alloc := policy.Default().Allocation
		tc.mutate(&alloc)
		_, err := NewDCM(DCMConfig{
			Policy:      DefaultPolicy(),
			TomcatModel: tomcat,
			MySQLModel:  mysql,
			Allocation:  alloc,
		})
		if !errors.Is(err, policy.ErrBadRules) {
			t.Errorf("%s: err = %v, want policy.ErrBadRules", tc.name, err)
		}
	}
}

func TestScaleOutOnHighCPU(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	actions := c.Evaluate(view(0.9, 0.3, 1, 1, 1, 1, model.Allocation{}))
	a := findAction(actions, ActionScaleOut, ntier.TierApp)
	if a == nil {
		t.Fatalf("no scale-out: %+v", actions)
	}
	if findAction(actions, ActionScaleOut, ntier.TierDB) != nil {
		t.Fatal("scaled out a cool tier")
	}
	if a.Reason == "" {
		t.Fatal("action has no reason")
	}
}

func TestNoScaleOutWhileProvisioning(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	// Live > Ready: a VM is already booting.
	actions := c.Evaluate(view(0.95, 0.3, 1, 2, 1, 1, model.Allocation{}))
	if findAction(actions, ActionScaleOut, ntier.TierApp) != nil {
		t.Fatal("stacked a second launch while provisioning")
	}
}

func TestNoScaleOutAtMax(t *testing.T) {
	t.Parallel()
	p := DefaultPolicy()
	p.MaxServers = 2
	c, err := NewEC2AutoScale(p)
	if err != nil {
		t.Fatal(err)
	}
	actions := c.Evaluate(view(0.95, 0.3, 2, 2, 1, 1, model.Allocation{}))
	if findAction(actions, ActionScaleOut, ntier.TierApp) != nil {
		t.Fatal("exceeded MaxServers")
	}
}

func TestScaleInNeedsConsecutiveLowPeriods(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	low := view(0.2, 0.5, 2, 2, 1, 1, model.Allocation{})
	for i := 0; i < 2; i++ {
		if a := findAction(c.Evaluate(low), ActionScaleIn, ntier.TierApp); a != nil {
			t.Fatalf("scale-in after only %d low periods", i+1)
		}
	}
	actions := c.Evaluate(low)
	if findAction(actions, ActionScaleIn, ntier.TierApp) == nil {
		t.Fatalf("no scale-in after 3 low periods: %+v", actions)
	}
	// Counter must reset after the action.
	if findAction(c.Evaluate(low), ActionScaleIn, ntier.TierApp) != nil {
		t.Fatal("scale-in repeated immediately")
	}
}

func TestScaleInRunResetByHotPeriod(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	low := view(0.2, 0.5, 2, 2, 1, 1, model.Allocation{})
	mid := view(0.6, 0.5, 2, 2, 1, 1, model.Allocation{})
	c.Evaluate(low)
	c.Evaluate(low)
	c.Evaluate(mid) // resets the run
	c.Evaluate(low)
	c.Evaluate(low)
	if findAction(c.Evaluate(low), ActionScaleIn, ntier.TierApp) == nil {
		t.Fatal("scale-in did not trigger after a fresh run of 3")
	}
}

func TestNoScaleInBelowMin(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	low := view(0.1, 0.5, 1, 1, 1, 1, model.Allocation{})
	for i := 0; i < 5; i++ {
		if findAction(c.Evaluate(low), ActionScaleIn, ntier.TierApp) != nil {
			t.Fatal("scaled below MinServers")
		}
	}
}

func TestEC2NeverTouchesSoftResources(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	alloc := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 200, DBConnsPerAppServer: 40}
	for _, v := range []SystemView{
		view(0.9, 0.9, 1, 1, 1, 1, alloc),
		view(0.1, 0.1, 2, 2, 2, 2, alloc),
	} {
		for _, a := range c.Evaluate(v) {
			if a.Type == ActionSetAllocation {
				t.Fatal("EC2AutoScale reconfigured soft resources")
			}
		}
	}
	if c.Name() != "ec2-autoscale" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestDCMEmitsOptimalAllocation(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	start := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 200, DBConnsPerAppServer: 40}
	actions := c.Evaluate(view(0.5, 0.5, 1, 1, 1, 1, start))
	a := findAction(actions, ActionSetAllocation, "")
	if a == nil {
		t.Fatalf("no allocation action: %+v", actions)
	}
	// Table I models, 1/1/1: 1000/20/36.
	want := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 20, DBConnsPerAppServer: 36}
	if a.Allocation != want {
		t.Fatalf("allocation = %v, want %v", a.Allocation, want)
	}
}

func TestDCMAllocationTracksTopology(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	opt111 := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 20, DBConnsPerAppServer: 36}
	// Already optimal for 1/1/1: no reallocation.
	actions := c.Evaluate(view(0.5, 0.5, 1, 1, 1, 1, opt111))
	if findAction(actions, ActionSetAllocation, "") != nil {
		t.Fatal("reallocated when already optimal")
	}
	// Second Tomcat becomes ready: conn pools must split (paper's
	// 1000/20/18 for 1/2/1).
	actions = c.Evaluate(view(0.5, 0.5, 2, 2, 1, 1, opt111))
	a := findAction(actions, ActionSetAllocation, "")
	if a == nil {
		t.Fatal("no reallocation after scale-out")
	}
	if a.Allocation.DBConnsPerAppServer != 18 {
		t.Fatalf("db conns per app = %d, want 18", a.Allocation.DBConnsPerAppServer)
	}
	// A VM still provisioning must NOT change the allocation target.
	actions = c.Evaluate(view(0.5, 0.5, 1, 2, 1, 1, opt111))
	if findAction(actions, ActionSetAllocation, "") != nil {
		t.Fatal("reallocated for a VM that is not serving yet")
	}
}

func TestDCMAlsoScalesVMs(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	actions := c.Evaluate(view(0.9, 0.3, 1, 1, 1, 1, model.Allocation{}))
	if findAction(actions, ActionScaleOut, ntier.TierApp) == nil {
		t.Fatal("DCM did not scale out on high CPU")
	}
	if c.Name() != "dcm" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestDCMSkipsAllocationWithoutTopology(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	v := SystemView{Tiers: map[string]TierStats{}}
	if actions := c.Evaluate(v); findAction(actions, ActionSetAllocation, "") != nil {
		t.Fatal("emitted allocation without tier counts")
	}
}

func TestNewDCMRejectsDegenerateModels(t *testing.T) {
	t.Parallel()
	_, mysql := model.TableI()
	flat := model.Params{S0: 0.01, Alpha: 0, Beta: 0, Gamma: 1}
	if _, err := NewDCM(DCMConfig{Policy: DefaultPolicy(), TomcatModel: flat, MySQLModel: mysql}); err == nil {
		t.Fatal("degenerate tomcat model accepted")
	}
	tomcat, _ := model.TableI()
	if _, err := NewDCM(DCMConfig{Policy: DefaultPolicy(), TomcatModel: tomcat, MySQLModel: flat}); err == nil {
		t.Fatal("degenerate mysql model accepted")
	}
}

func TestDCMHeadroom(t *testing.T) {
	t.Parallel()
	tomcat, mysql := model.TableI()
	alloc := policy.Default().Allocation
	alloc.Headroom = 1.5
	c, err := NewDCM(DCMConfig{
		Policy:      DefaultPolicy(),
		TomcatModel: tomcat,
		MySQLModel:  mysql,
		Allocation:  alloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	actions := c.Evaluate(view(0.5, 0.5, 1, 1, 1, 1, model.Allocation{}))
	a := findAction(actions, ActionSetAllocation, "")
	if a == nil {
		t.Fatal("no allocation action")
	}
	if a.Allocation.AppThreadsPerServer != 30 {
		t.Fatalf("app threads = %d, want 30 with 1.5 headroom", a.Allocation.AppThreadsPerServer)
	}
}

func TestActionTypeString(t *testing.T) {
	t.Parallel()
	if ActionScaleOut.String() != "scale-out" ||
		ActionScaleIn.String() != "scale-in" ||
		ActionSetAllocation.String() != "set-allocation" {
		t.Fatal("action names wrong")
	}
	if ActionType(9).String() != "action(9)" {
		t.Fatal("unknown action name wrong")
	}
}

// onlineDCM builds a DCM with online training, seeded with a deliberately
// wrong Tomcat model (beta /16 shifts the static optimum to ~80).
func onlineDCM(t *testing.T) *DCM {
	t.Helper()
	tomcat, mysql := model.TableI()
	wrong := tomcat
	wrong.Beta /= 16
	c, err := NewDCM(DCMConfig{
		Policy:         DefaultPolicy(),
		TomcatModel:    wrong,
		MySQLModel:     mysql,
		OnlineTraining: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// viewAt builds a view whose app tier sits at the given per-server
// operating point on the true Table I curve.
func viewAt(n float64) SystemView {
	tomcat, mysql := model.TableI()
	return SystemView{
		Tiers: map[string]TierStats{
			ntier.TierWeb: {Tier: ntier.TierWeb, Ready: 1, Live: 1, MeanCPU: 0.2},
			ntier.TierApp: {
				Tier: ntier.TierApp, Ready: 1, Live: 1, MeanCPU: 0.5,
				MeanActive: n, Throughput: tomcat.Throughput(n, 1),
			},
			ntier.TierDB: {
				Tier: ntier.TierDB, Ready: 1, Live: 1, MeanCPU: 0.5,
				MeanActive: n * 1.5, Throughput: mysql.Throughput(n*1.5, 1),
			},
		},
	}
}

func TestDCMOnlineTrainingCorrectsWrongModel(t *testing.T) {
	t.Parallel()
	c := onlineDCM(t)
	// Before any data: the planner uses the wrong static model.
	tomcatBefore, _ := c.Models()
	nBefore, _ := tomcatBefore.OptimalConcurrencyInt()
	if nBefore < 60 {
		t.Fatalf("static wrong model N_b = %d, expected ~80", nBefore)
	}
	// The workload sweeps the system across operating points; the online
	// trainer sees the true curve.
	for _, n := range []float64{2, 4, 7, 11, 16, 22, 30, 45, 70, 100, 150, 8, 25, 60} {
		c.Evaluate(viewAt(n))
	}
	tomcatAfter, mysqlAfter := c.Models()
	nAfter, ok := tomcatAfter.OptimalConcurrencyInt()
	if !ok {
		t.Fatal("online tomcat model has no optimum")
	}
	if nAfter < 17 || nAfter > 23 {
		t.Fatalf("online-corrected N_b = %d, want ~20", nAfter)
	}
	if nDB, ok := mysqlAfter.OptimalConcurrencyInt(); !ok || nDB < 30 || nDB > 42 {
		t.Fatalf("online mysql N_b = %d, want ~36", nDB)
	}
	// And the emitted allocation reflects the corrected model.
	actions := c.Evaluate(viewAt(20))
	a := findAction(actions, ActionSetAllocation, "")
	if a == nil {
		t.Fatal("no allocation action after correction")
	}
	if a.Allocation.AppThreadsPerServer < 17 || a.Allocation.AppThreadsPerServer > 23 {
		t.Fatalf("allocation app threads = %d, want ~20", a.Allocation.AppThreadsPerServer)
	}
}

func TestDCMOnlineTrainingHoldsBackOnNarrowData(t *testing.T) {
	t.Parallel()
	c := onlineDCM(t)
	// Operating points all in one band: not identifiable, static model
	// stays in effect.
	for i := 0; i < 20; i++ {
		c.Evaluate(viewAt(20))
	}
	tomcat, _ := c.Models()
	n, _ := tomcat.OptimalConcurrencyInt()
	if n < 60 {
		t.Fatalf("model replaced from unidentifiable data: N_b = %d", n)
	}
}

func TestDCMOnlineDisabledByDefault(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	for _, n := range []float64{2, 4, 7, 11, 16, 22, 30, 45, 70, 100, 150} {
		c.Evaluate(viewAt(n))
	}
	tomcat, _ := c.Models()
	paperT, _ := model.TableI()
	if tomcat != paperT {
		t.Fatal("static DCM mutated its model")
	}
}

func TestHoltForecastTracksTrend(t *testing.T) {
	t.Parallel()
	h := newHolt(0.5, 0.3)
	// A clean linear ramp: forecast extrapolates it.
	for i := 0; i < 10; i++ {
		h.observe(0.1 * float64(i))
	}
	f := h.forecast(2)
	if f < 0.95 || f > 1.25 {
		t.Fatalf("forecast = %v, want ~1.1 (linear ramp continuation)", f)
	}
	// Too few observations: level only.
	h2 := newHolt(0.5, 0.3)
	h2.observe(0.4)
	if got := h2.forecast(3); got != 0.4 {
		t.Fatalf("single-sample forecast = %v", got)
	}
}

func TestNewHoltClampsParameters(t *testing.T) {
	t.Parallel()
	h := newHolt(-1, 5)
	if h.alpha != 0.5 || h.beta != 0.3 {
		t.Fatalf("clamped params = %v, %v", h.alpha, h.beta)
	}
}

func TestPredictiveScalesOutOnRisingTrend(t *testing.T) {
	t.Parallel()
	c, err := NewPredictiveEC2AutoScale(DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// CPU rising 0.40 -> 0.75 in steps of ~0.09: still below the 0.80
	// threshold, but the 2-period forecast crosses it.
	var actions []Action
	for _, cpu := range []float64{0.40, 0.49, 0.58, 0.67, 0.75} {
		actions = c.Evaluate(view(cpu, 0.3, 1, 1, 1, 1, model.Allocation{}))
	}
	if findAction(actions, ActionScaleOut, ntier.TierApp) == nil {
		t.Fatalf("no anticipatory scale-out: %+v", actions)
	}
	// The purely reactive baseline would not have fired yet.
	r := mustEC2(t)
	var reactive []Action
	for _, cpu := range []float64{0.40, 0.49, 0.58, 0.67, 0.75} {
		reactive = r.Evaluate(view(cpu, 0.3, 1, 1, 1, 1, model.Allocation{}))
	}
	if findAction(reactive, ActionScaleOut, ntier.TierApp) != nil {
		t.Fatal("reactive baseline fired below threshold")
	}
}

func TestPredictiveDoesNotAccelerateScaleIn(t *testing.T) {
	t.Parallel()
	c, err := NewPredictiveEC2AutoScale(DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Falling trend: measured CPU still above the lower bound; the
	// downward forecast must not trigger a removal.
	for _, cpu := range []float64{0.70, 0.60, 0.50, 0.45, 0.42} {
		for _, a := range c.Evaluate(view(cpu, 0.5, 2, 2, 1, 1, model.Allocation{})) {
			if a.Type == ActionScaleIn {
				t.Fatalf("forecast accelerated scale-in at cpu %v", cpu)
			}
		}
	}
}

func TestPredictiveDelaysScaleInWhileForecastHigh(t *testing.T) {
	t.Parallel()
	c, err := NewPredictiveEC2AutoScale(DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Rising from a low base: measured CPU below the 0.40 lower bound for
	// 3+ periods, but the trend heads up — no removal.
	for _, cpu := range []float64{0.10, 0.20, 0.30, 0.38, 0.39} {
		for _, a := range c.Evaluate(view(cpu, 0.5, 2, 2, 1, 1, model.Allocation{})) {
			if a.Type == ActionScaleIn {
				t.Fatalf("scale-in despite rising forecast at cpu %v", cpu)
			}
		}
	}
}

func TestPredictiveDCMConstruction(t *testing.T) {
	t.Parallel()
	tomcat, mysql := model.TableI()
	c, err := NewDCM(DCMConfig{
		Policy:      DefaultPolicy(),
		TomcatModel: tomcat,
		MySQLModel:  mysql,
		Predictive:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The soft-resource level is unchanged.
	actions := c.Evaluate(view(0.5, 0.5, 1, 1, 1, 1, model.Allocation{}))
	if findAction(actions, ActionSetAllocation, "") == nil {
		t.Fatal("predictive DCM lost its APP-agent level")
	}
}

func TestTargetTrackingScalesToDesiredCapacity(t *testing.T) {
	t.Parallel()
	c, err := NewTargetTracking(DefaultPolicy(), policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "target-tracking" {
		t.Fatalf("name = %q", c.Name())
	}
	// 1 server at 90% CPU with a 60% target wants ceil(1*0.9/0.6) = 2.
	actions := c.Evaluate(view(0.9, 0.3, 1, 1, 1, 1, model.Allocation{}))
	if findAction(actions, ActionScaleOut, ntier.TierApp) == nil {
		t.Fatalf("no scale-out: %+v", actions)
	}
	// 2 servers at 55%: desired = ceil(2*0.55/0.6) = 2 — steady.
	actions = c.Evaluate(view(0.55, 0.3, 2, 2, 1, 1, model.Allocation{}))
	if len(actions) != 0 {
		t.Fatalf("steady state acted: %+v", actions)
	}
}

func TestTargetTrackingScaleInIsConservative(t *testing.T) {
	t.Parallel()
	c, err := NewTargetTracking(DefaultPolicy(), policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	// 3 servers at 15%: desired = 1, but removal needs 3 quiet periods.
	low := view(0.15, 0.5, 3, 3, 1, 1, model.Allocation{})
	for i := 0; i < 2; i++ {
		if findAction(c.Evaluate(low), ActionScaleIn, ntier.TierApp) != nil {
			t.Fatalf("scale-in after %d periods", i+1)
		}
	}
	if findAction(c.Evaluate(low), ActionScaleIn, ntier.TierApp) == nil {
		t.Fatal("no scale-in after 3 quiet periods")
	}
}

func TestTargetTrackingGuards(t *testing.T) {
	t.Parallel()
	for _, target := range []float64{0, 1.5} {
		if _, err := NewTargetTracking(DefaultPolicy(), policy.TargetRules{TargetCPU: target}); !errors.Is(err, policy.ErrBadRules) {
			t.Fatalf("target %v: err = %v, want policy.ErrBadRules", target, err)
		}
	}
	bad := DefaultPolicy()
	bad.MinServers = 0
	if _, err := NewTargetTracking(bad, policy.Default().Target); err == nil {
		t.Fatal("bad policy accepted")
	}
	c, err := NewTargetTracking(DefaultPolicy(), policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	// No stacked launches while provisioning.
	actions := c.Evaluate(view(0.95, 0.3, 1, 2, 1, 1, model.Allocation{}))
	if findAction(actions, ActionScaleOut, ntier.TierApp) != nil {
		t.Fatal("stacked launch while provisioning")
	}
	// Never exceeds MaxServers.
	p := DefaultPolicy()
	p.MaxServers = 2
	c2, err := NewTargetTracking(p, policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	actions = c2.Evaluate(view(0.99, 0.3, 2, 2, 1, 1, model.Allocation{}))
	if findAction(actions, ActionScaleOut, ntier.TierApp) != nil {
		t.Fatal("exceeded MaxServers")
	}
}

func TestCrashedCapacityReprovisions(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	// One of two app servers crashed this period: the census demands an
	// immediate replacement even though the survivor's CPU is moderate.
	v := view(0.5, 0.5, 1, 1, 1, 1, model.Allocation{})
	ts := v.Tiers[ntier.TierApp]
	ts.Crashed = 1
	v.Tiers[ntier.TierApp] = ts
	actions := c.Evaluate(v)
	out := findAction(actions, ActionScaleOut, ntier.TierApp)
	if out == nil {
		t.Fatalf("no re-provision scale-out for crashed capacity: %+v", actions)
	}
}

func TestCrashedCapacityRespectsMaxServers(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	// Two crashes but only one slot below MaxServers: launch one.
	policyMax := DefaultPolicy().MaxServers
	v := view(0.5, 0.5, policyMax-1, policyMax-1, 1, 1, model.Allocation{})
	ts := v.Tiers[ntier.TierApp]
	ts.Crashed = 2
	v.Tiers[ntier.TierApp] = ts
	n := 0
	for _, a := range c.Evaluate(v) {
		if a.Type == ActionScaleOut && a.Tier == ntier.TierApp {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("re-provision actions = %d, want 1 (MaxServers cap)", n)
	}
}

func TestNoDataHoldsTopology(t *testing.T) {
	t.Parallel()
	c := mustEC2(t)
	dark := func() SystemView {
		v := view(0, 0, 2, 2, 2, 2, model.Allocation{})
		for _, tierName := range []string{ntier.TierApp, ntier.TierDB} {
			ts := v.Tiers[tierName]
			ts.NoData = true
			v.Tiers[tierName] = ts
		}
		return v
	}
	// A blackout longer than the scale-in run must not shrink the fleet:
	// zero CPU with NoData set is "no signal", not "idle".
	for i := 0; i < DefaultPolicy().LowerConsecutive+2; i++ {
		if actions := c.Evaluate(dark()); len(actions) != 0 {
			t.Fatalf("period %d: actions during blackout: %+v", i, actions)
		}
	}
	// The dark periods must not have advanced the scale-in countdown
	// either: one genuinely low period afterwards is still short of
	// LowerConsecutive.
	low := view(0.2, 0.2, 2, 2, 2, 2, model.Allocation{})
	if actions := c.Evaluate(low); len(actions) != 0 {
		t.Fatalf("scale-in fired on the first measured period after a blackout: %+v", actions)
	}
}
