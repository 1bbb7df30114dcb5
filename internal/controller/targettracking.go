package controller

import "dcm/internal/policy"

// TargetTracking is a stronger hardware-only baseline than the paper's
// threshold policy: the modern EC2 Auto Scaling "target tracking" strategy.
// Each period it computes the capacity that would bring the tier's CPU to
// the target,
//
//	desired = ceil(current · cpu / target)
//
// scaling out immediately and scaling in only after the desired capacity
// has stayed below the current one for LowerConsecutive periods (target
// tracking's own conservative scale-in). Like EC2AutoScale it never touches
// soft resources, so comparing it against DCM shows that even a smarter
// hardware-only policy cannot fix a concurrency misallocation. The decision
// procedure lives in policy.TargetEvaluator; this type adapts views and
// records the audit trail.
type TargetTracking struct {
	eval  *policy.TargetEvaluator
	audit *AuditLog
}

var _ Controller = (*TargetTracking)(nil)

// NewTargetTracking builds the target-tracking baseline from the shared
// VM-level rules and the CPU setpoint.
func NewTargetTracking(scaling policy.ScalingRules, target policy.TargetRules) (*TargetTracking, error) {
	eval, err := policy.NewTargetEvaluator(scaling, target)
	if err != nil {
		return nil, err
	}
	return &TargetTracking{eval: eval}, nil
}

// Name implements Controller.
func (c *TargetTracking) Name() string { return "target-tracking" }

// EnableAudit implements Audited.
func (c *TargetTracking) EnableAudit(log *AuditLog) { c.audit = log }

// Evaluate implements Controller.
func (c *TargetTracking) Evaluate(view SystemView) []Action {
	actions, holds := splitVerdicts(c.eval.Evaluate(observationsOf(view)))
	if c.audit != nil {
		c.audit.add(Decision{
			At:         view.At,
			Controller: c.Name(),
			View:       view,
			Actions:    actions,
			Holds:      holds,
		})
	}
	return actions
}
