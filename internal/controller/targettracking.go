package controller

import (
	"fmt"
	"math"

	"dcm/internal/policy"
)

// TargetTracking is a stronger hardware-only baseline than the paper's
// threshold policy: the modern EC2 Auto Scaling "target tracking" strategy.
// Each period it computes the capacity that would bring the tier's CPU to
// the target,
//
//	desired = ceil(current · cpu / target)
//
// scaling out immediately and scaling in only after the desired capacity
// has stayed below the current one for LowerConsecutive periods (target
// tracking's own conservative scale-in). Crashed VMs are re-provisioned
// first, exactly as the threshold rule does. Like EC2AutoScale it never
// touches soft resources, so comparing it against DCM shows that even a
// smarter hardware-only policy cannot fix a concurrency misallocation. The
// rule reads policy.TargetRules' setpoint and the shared capacity bounds of
// policy.ScalingRules; its consecutive-low counters are its only state.
type TargetTracking struct {
	rules  policy.ScalingRules
	target float64
	lowRun lowRuns
	audit  *AuditLog
}

var _ Controller = (*TargetTracking)(nil)

// NewTargetTracking builds the target-tracking baseline from the shared
// VM-level rules and the CPU setpoint.
func NewTargetTracking(scaling policy.ScalingRules, target policy.TargetRules) (*TargetTracking, error) {
	if err := scaling.Validate(); err != nil {
		return nil, err
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	return &TargetTracking{rules: scaling, target: target.TargetCPU, lowRun: lowRuns{}}, nil
}

// Name implements Controller.
func (c *TargetTracking) Name() string { return "target-tracking" }

// EnableAudit implements Audited.
func (c *TargetTracking) EnableAudit(log *AuditLog) { c.audit = log }

// Evaluate implements Controller: one decision per scalable tier, in tier
// order, with a Hold for every tier left alone.
func (c *TargetTracking) Evaluate(view SystemView) []Action {
	var actions []Action
	var holds []Hold
	for _, tierName := range c.rules.ScalableTiers {
		ts, seen := view.Tiers[tierName]
		// A crash is replaced even when it took the tier's last VM.
		var crashed bool
		if actions, holds, crashed = c.lowRun.reprovision(c.rules, tierName, ts, actions, holds); crashed {
			continue
		}
		if !seen || ts.Ready == 0 {
			holds = append(holds, Hold{Tier: tierName, Code: CodeTierUnseen})
			continue
		}
		if ts.NoData {
			holds = append(holds, Hold{Tier: tierName, Code: CodeNoDataHold,
				Detail: "no monitoring samples this period"})
			continue
		}
		desired := int(math.Ceil(float64(ts.Ready) * ts.MeanCPU / c.target))
		desired = min(max(desired, c.rules.MinServers), c.rules.MaxServers)
		switch {
		case desired > ts.Ready:
			c.lowRun[tierName] = 0
			// One launch per period, and none while a VM is provisioning —
			// the same pacing the threshold rule uses. desired is clamped
			// to MaxServers, so a tier that wants more than it has is never
			// at the bound once nothing is in flight.
			if ts.Live > ts.Ready {
				holds = append(holds, Hold{Tier: tierName, Code: CodeLaunchInFlight,
					Detail: fmt.Sprintf("%d live > %d ready", ts.Live, ts.Ready)})
				continue
			}
			actions = append(actions, Action{
				Type: ActionScaleOut,
				Tier: tierName,
				Code: CodeTargetAbove,
				Reason: fmt.Sprintf("target tracking: cpu %.0f%% wants %d servers (have %d)",
					ts.MeanCPU*100, desired, ts.Ready),
			})
		case desired < ts.Ready:
			if hold, wait := c.lowRun.quiet(tierName, ts, c.rules.LowerConsecutive); wait {
				holds = append(holds, hold)
				continue
			}
			actions = append(actions, Action{
				Type: ActionScaleIn,
				Tier: tierName,
				Code: CodeTargetBelow,
				Reason: fmt.Sprintf("target tracking: cpu %.0f%% wants %d servers for %d periods",
					ts.MeanCPU*100, desired, c.rules.LowerConsecutive),
			})
		default:
			c.lowRun[tierName] = 0
			holds = append(holds, Hold{Tier: tierName, Code: CodeSteady})
		}
	}
	c.audit.add(Decision{
		At:         view.At,
		Controller: c.Name(),
		View:       view,
		Actions:    actions,
		Holds:      holds,
	})
	return actions
}
