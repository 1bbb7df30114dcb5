package policy_test

import (
	"errors"
	"reflect"
	"testing"

	"dcm/internal/controller"
	"dcm/internal/ntier"
	"dcm/internal/policy"
)

// These tests check what the scaling and target rules mean, as the
// controllers that apply them decide. Every action and hold of the same
// periods is pinned byte for byte in internal/controller's TestVMLevelRules.

// audited wraps a hardware-only controller so each period returns its
// actions and the holds it recorded in its audit log.
func audited(c interface {
	controller.Controller
	controller.Audited
}) func(controller.SystemView) ([]controller.Action, []controller.Hold) {
	log := controller.NewAuditLog()
	c.EnableAudit(log)
	return func(v controller.SystemView) ([]controller.Action, []controller.Hold) {
		actions := c.Evaluate(v)
		ds := log.Decisions()
		return actions, ds[len(ds)-1].Holds
	}
}

func view(app, db *controller.TierStats) controller.SystemView {
	v := controller.SystemView{Tiers: map[string]controller.TierStats{}}
	if app != nil {
		v.Tiers[ntier.TierApp] = *app
	}
	if db != nil {
		v.Tiers[ntier.TierDB] = *db
	}
	return v
}

func TestScalingEvaluatorRejectsBadRules(t *testing.T) {
	t.Parallel()
	bad := policy.Default().Scaling
	bad.MinServers = 0
	if _, err := controller.NewEC2AutoScale(bad); !errors.Is(err, policy.ErrBadRules) {
		t.Fatalf("threshold rule: err = %v, want ErrBadRules", err)
	}
	if _, err := controller.NewTargetTracking(bad, policy.Default().Target); !errors.Is(err, policy.ErrBadRules) {
		t.Fatalf("target rule: err = %v, want ErrBadRules", err)
	}
}

func TestScalingEvaluatorQuickStartSlowStop(t *testing.T) {
	t.Parallel()
	c, err := controller.NewEC2AutoScale(policy.Default().Scaling)
	if err != nil {
		t.Fatal(err)
	}
	decide := audited(c)
	mid := &controller.TierStats{Ready: 1, Live: 1, MeanCPU: 0.5}
	actions, holds := decide(view(&controller.TierStats{Ready: 1, Live: 1, MeanCPU: 0.95}, mid))
	wantActions := []controller.Action{{Type: controller.ActionScaleOut, Tier: ntier.TierApp,
		Code: controller.CodeCPUHigh, Reason: "cpu 95% > 80% upper bound"}}
	wantHolds := []controller.Hold{{Tier: ntier.TierDB, Code: controller.CodeSteady}}
	if !reflect.DeepEqual(actions, wantActions) || !reflect.DeepEqual(holds, wantHolds) {
		t.Errorf("hot period = %+v %+v, want %+v %+v", actions, holds, wantActions, wantHolds)
	}
	// Scale-in needs LowerConsecutive quiet periods: the first two hold.
	quiet := view(&controller.TierStats{Ready: 2, Live: 2, MeanCPU: 0.1}, mid)
	for i := 1; i < 3; i++ {
		actions, holds := decide(quiet)
		if len(actions) != 0 || holds[0].Code != controller.CodeAwaitingLow {
			t.Fatalf("quiet period %d: %+v %+v, want %s hold", i, actions, holds, controller.CodeAwaitingLow)
		}
	}
	actions, _ = decide(quiet)
	if len(actions) != 1 || actions[0].Type != controller.ActionScaleIn || actions[0].Code != controller.CodeCPULowSustained {
		t.Fatalf("third quiet period: %+v, want scale-in", actions)
	}
}

func TestScalingEvaluatorCrashAndBlackout(t *testing.T) {
	t.Parallel()
	rules := policy.Default().Scaling
	rules.MaxServers = 3
	c, err := controller.NewEC2AutoScale(rules)
	if err != nil {
		t.Fatal(err)
	}
	actions, holds := audited(c)(view(
		&controller.TierStats{Ready: 1, Live: 2, Crashed: 2},
		&controller.TierStats{Ready: 1, Live: 1, NoData: true}))
	// MaxServers 3 with 2 live leaves room for one replacement; the second
	// is dropped with an explicit clamp hold, and the blackout tier holds.
	if len(actions) != 1 || actions[0].Code != controller.CodeCrashReprovision {
		t.Fatalf("actions = %+v, want one %s", actions, controller.CodeCrashReprovision)
	}
	wantCodes := []controller.ReasonCode{controller.CodeMaxServersClamp, controller.CodeNoDataHold}
	if len(holds) != len(wantCodes) {
		t.Fatalf("holds = %+v, want codes %v", holds, wantCodes)
	}
	for i, code := range wantCodes {
		if holds[i].Code != code {
			t.Errorf("hold %d code = %s, want %s", i, holds[i].Code, code)
		}
	}
}

func TestTargetEvaluatorSetpoint(t *testing.T) {
	t.Parallel()
	if _, err := controller.NewTargetTracking(policy.Default().Scaling, policy.TargetRules{}); !errors.Is(err, policy.ErrBadRules) {
		t.Fatalf("zero setpoint: err = %v, want ErrBadRules", err)
	}
	c, err := controller.NewTargetTracking(policy.Default().Scaling, policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	decide := audited(c)
	// cpu 0.9 at 2 ready → desired ceil(2·0.9/0.6) = 3 → scale out.
	actions, holds := decide(view(
		&controller.TierStats{Ready: 2, Live: 2, MeanCPU: 0.9},
		&controller.TierStats{Ready: 1, Live: 1, MeanCPU: 0.6}))
	if len(actions) != 1 || actions[0].Type != controller.ActionScaleOut || actions[0].Code != controller.CodeTargetAbove {
		t.Fatalf("actions = %+v, want target-above scale-out", actions)
	}
	if len(holds) != 1 || holds[0].Code != controller.CodeSteady {
		t.Fatalf("db holds = %+v, want steady", holds)
	}
	// An unseen or empty tier is held, never scaled.
	actions, holds = decide(view(nil, nil))
	if len(actions) != 0 || len(holds) != 2 {
		t.Fatalf("empty view = %+v %+v, want two holds", actions, holds)
	}
	for _, h := range holds {
		if h.Code != controller.CodeTierUnseen {
			t.Errorf("empty view hold = %+v, want tier-unseen", h)
		}
	}
}
