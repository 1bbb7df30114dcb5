package controller

import (
	"reflect"
	"testing"

	"dcm/internal/ntier"
	"dcm/internal/policy"
)

// decideFunc runs one control period of a VM-level rule and returns its
// actions and holds.
type decideFunc func(SystemView) ([]Action, []Hold)

func thresholdDecide(t *testing.T, rules policy.ScalingRules, predictive bool) decideFunc {
	t.Helper()
	r, err := newThresholdRule(rules, predictive)
	if err != nil {
		t.Fatal(err)
	}
	return r.evaluate
}

// targetDecide reads the target-tracking rule's holds back from its audit
// log, where Evaluate records them.
func targetDecide(t *testing.T, rules policy.ScalingRules) decideFunc {
	t.Helper()
	c, err := NewTargetTracking(rules, policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	log := NewAuditLog()
	c.EnableAudit(log)
	return func(v SystemView) ([]Action, []Hold) {
		actions := c.Evaluate(v)
		return actions, log.decisions[len(log.decisions)-1].Holds
	}
}

// tiers builds a view's tier map from app and db stats; a nil argument
// leaves that tier out of the view.
func tiers(app, db *TierStats) SystemView {
	v := SystemView{Tiers: map[string]TierStats{}}
	if app != nil {
		v.Tiers[ntier.TierApp] = *app
	}
	if db != nil {
		v.Tiers[ntier.TierDB] = *db
	}
	return v
}

// TestVMLevelRules runs the threshold and target-tracking rules through
// period sequences over SystemView literals and checks every action and
// hold, reason strings and order included. Together with the pinned
// scenario audit logs this covers every reason code the two rules emit.
func TestVMLevelRules(t *testing.T) {
	t.Parallel()
	type period struct {
		view    SystemView
		actions []Action
		holds   []Hold
	}
	app, db := ntier.TierApp, ntier.TierDB
	steadyDB := Hold{Tier: db, Code: CodeSteady}
	quietApp := &TierStats{Ready: 2, Live: 2, MeanCPU: 0.1}
	midDB := &TierStats{Ready: 1, Live: 1, MeanCPU: 0.5}
	maxed := DefaultPolicy()
	maxed.MaxServers = 2
	clamped := DefaultPolicy()
	clamped.MaxServers = 3
	cases := []struct {
		name    string
		decide  func(t *testing.T) decideFunc
		periods []period
	}{
		{
			// "Quick start": one hot period scales out. "Slow turn off":
			// scale-in needs LowerConsecutive quiet periods.
			name:   "threshold/quick-start-slow-stop",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, DefaultPolicy(), false) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 1, Live: 1, MeanCPU: 0.95}, midDB),
					actions: []Action{{Type: ActionScaleOut, Tier: app, Code: CodeCPUHigh,
						Reason: "cpu 95% > 80% upper bound"}},
					holds: []Hold{steadyDB}},
				{view: tiers(quietApp, midDB),
					holds: []Hold{{Tier: app, Code: CodeAwaitingLow, Detail: "quiet period 1 of 3"}, steadyDB}},
				{view: tiers(quietApp, midDB),
					holds: []Hold{{Tier: app, Code: CodeAwaitingLow, Detail: "quiet period 2 of 3"}, steadyDB}},
				{view: tiers(quietApp, midDB),
					actions: []Action{{Type: ActionScaleIn, Tier: app, Code: CodeCPULowSustained,
						Reason: "cpu < 40% for 3 consecutive periods"}},
					holds: []Hold{steadyDB}},
			},
		},
		{
			// MaxServers 3 with 2 live leaves room for one replacement;
			// the second is dropped with an explicit clamp hold, and the
			// blackout tier holds.
			name:   "threshold/crash-and-blackout",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, clamped, false) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 1, Live: 2, Crashed: 2}, &TierStats{Ready: 1, Live: 1, NoData: true}),
					actions: []Action{{Type: ActionScaleOut, Tier: app, Code: CodeCrashReprovision,
						Reason: "re-provision 2 crashed VM(s) (census: 1 serving)"}},
					holds: []Hold{
						{Tier: app, Code: CodeMaxServersClamp, Detail: "1 of 2 replacements dropped: 2 live at max 3"},
						{Tier: db, Code: CodeNoDataHold, Detail: "no monitoring samples this period"},
					}},
			},
		},
		{
			name:   "threshold/tier-unseen",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, DefaultPolicy(), false) },
			periods: []period{
				{view: tiers(midDB, nil),
					holds: []Hold{{Tier: app, Code: CodeSteady}, {Tier: db, Code: CodeTierUnseen}}},
			},
		},
		{
			name:   "threshold/at-max-servers",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, maxed, false) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 2, Live: 2, MeanCPU: 0.9}, midDB),
					holds: []Hold{{Tier: app, Code: CodeAtMaxServers,
						Detail: "cpu 90% high with 2 live at max 2"}, steadyDB}},
			},
		},
		{
			// The countdown elapses at the floor: the removal is held.
			name:   "threshold/at-min-servers",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, DefaultPolicy(), false) },
			periods: []period{
				{view: tiers(midDB, &TierStats{Ready: 1, Live: 1, MeanCPU: 0.2}),
					holds: []Hold{{Tier: app, Code: CodeSteady},
						{Tier: db, Code: CodeAwaitingLow, Detail: "quiet period 1 of 3"}}},
				{view: tiers(midDB, &TierStats{Ready: 1, Live: 1, MeanCPU: 0.2}),
					holds: []Hold{{Tier: app, Code: CodeSteady},
						{Tier: db, Code: CodeAwaitingLow, Detail: "quiet period 2 of 3"}}},
				{view: tiers(midDB, &TierStats{Ready: 1, Live: 1, MeanCPU: 0.2}),
					holds: []Hold{{Tier: app, Code: CodeSteady},
						{Tier: db, Code: CodeAtMinServers, Detail: "1 ready at min 1"}}},
			},
		},
		{
			// The forecast observes crash periods: the second measured
			// period already carries a trend (0.5 -> 0.7, forecast 1.1),
			// and the reason reports the forecast CPU.
			name:   "predictive/crash-period-observed",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, DefaultPolicy(), true) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 1, Live: 1, MeanCPU: 0.5, Crashed: 1}, midDB),
					actions: []Action{{Type: ActionScaleOut, Tier: app, Code: CodeCrashReprovision,
						Reason: "re-provision 1 crashed VM(s) (census: 1 serving)"}},
					holds: []Hold{steadyDB}},
				{view: tiers(&TierStats{Ready: 1, Live: 1, MeanCPU: 0.7}, midDB),
					actions: []Action{{Type: ActionScaleOut, Tier: app, Code: CodeCPUHigh,
						Reason: "cpu 110% > 80% upper bound"}},
					holds: []Hold{steadyDB}},
			},
		},
		{
			// A blackout period feeds nothing to the forecast: the first
			// measured period after it has no trend yet.
			name:   "predictive/blackout-skipped",
			decide: func(t *testing.T) decideFunc { return thresholdDecide(t, DefaultPolicy(), true) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 1, Live: 1, NoData: true}, midDB),
					holds: []Hold{{Tier: app, Code: CodeNoDataHold, Detail: "no monitoring samples this period"}, steadyDB}},
				{view: tiers(&TierStats{Ready: 1, Live: 1, MeanCPU: 0.5}, midDB),
					holds: []Hold{{Tier: app, Code: CodeSteady}, steadyDB}},
				{view: tiers(&TierStats{Ready: 1, Live: 1, MeanCPU: 0.7}, midDB),
					actions: []Action{{Type: ActionScaleOut, Tier: app, Code: CodeCPUHigh,
						Reason: "cpu 110% > 80% upper bound"}},
					holds: []Hold{steadyDB}},
			},
		},
		{
			// cpu 0.9 at 2 ready: desired ceil(2·0.9/0.6) = 3, scale out.
			// An unseen tier is held, never scaled.
			name:   "target/setpoint",
			decide: func(t *testing.T) decideFunc { return targetDecide(t, DefaultPolicy()) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 2, Live: 2, MeanCPU: 0.9}, &TierStats{Ready: 1, Live: 1, MeanCPU: 0.6}),
					actions: []Action{{Type: ActionScaleOut, Tier: app, Code: CodeTargetAbove,
						Reason: "target tracking: cpu 90% wants 3 servers (have 2)"}},
					holds: []Hold{steadyDB}},
				{view: tiers(nil, nil),
					holds: []Hold{{Tier: app, Code: CodeTierUnseen}, {Tier: db, Code: CodeTierUnseen}}},
				{view: tiers(&TierStats{Live: 1}, midDB),
					holds: []Hold{{Tier: app, Code: CodeTierUnseen}, steadyDB}},
			},
		},
		{
			// cpu 0.15 at 3 ready: desired ceil(3·0.15/0.6) = 1, removed
			// after LowerConsecutive periods.
			name:   "target/target-below",
			decide: func(t *testing.T) decideFunc { return targetDecide(t, DefaultPolicy()) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 3, Live: 3, MeanCPU: 0.15}, midDB),
					holds: []Hold{{Tier: app, Code: CodeAwaitingLow, Detail: "quiet period 1 of 3"}, steadyDB}},
				{view: tiers(&TierStats{Ready: 3, Live: 3, MeanCPU: 0.15}, midDB),
					holds: []Hold{{Tier: app, Code: CodeAwaitingLow, Detail: "quiet period 2 of 3"}, steadyDB}},
				{view: tiers(&TierStats{Ready: 3, Live: 3, MeanCPU: 0.15}, midDB),
					actions: []Action{{Type: ActionScaleIn, Tier: app, Code: CodeTargetBelow,
						Reason: "target tracking: cpu 15% wants 1 servers for 3 periods"}},
					holds: []Hold{steadyDB}},
			},
		},
		{
			name:   "target/launch-in-flight",
			decide: func(t *testing.T) decideFunc { return targetDecide(t, DefaultPolicy()) },
			periods: []period{
				{view: tiers(&TierStats{Ready: 1, Live: 2, MeanCPU: 0.95}, midDB),
					holds: []Hold{{Tier: app, Code: CodeLaunchInFlight, Detail: "2 live > 1 ready"}, steadyDB}},
				{view: tiers(&TierStats{Ready: 3, Live: 4, MeanCPU: 0.1}, midDB),
					holds: []Hold{{Tier: app, Code: CodeLaunchInFlight, Detail: "4 live != 3 ready"}, steadyDB}},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			decide := tc.decide(t)
			for i, p := range tc.periods {
				actions, holds := decide(p.view)
				if !reflect.DeepEqual(actions, p.actions) {
					t.Errorf("period %d actions = %+v, want %+v", i+1, actions, p.actions)
				}
				if !reflect.DeepEqual(holds, p.holds) {
					t.Errorf("period %d holds = %+v, want %+v", i+1, holds, p.holds)
				}
			}
		})
	}
}
