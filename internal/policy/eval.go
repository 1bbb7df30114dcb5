package policy

import (
	"fmt"
	"math"
)

// The deterministic evaluators: the decision procedures that used to be
// hand-coded inside internal/controller, now pure functions of (rules,
// observations) plus an explicit consecutive-low counter per tier. The
// controllers adapt Verdicts into their Action/Hold types one-to-one, so
// the reason codes and human-readable detail strings produced here ARE the
// audit log's contents — the equivalence tests pin them byte-identical to
// the pre-refactor output.

// Code is a machine-readable decision classification. The values are
// shared with internal/controller's ReasonCode (that package converts
// Codes verbatim), so a policy evaluator's output is directly comparable
// with historical audit logs.
type Code string

// Codes emitted by the evaluators.
const (
	CodeCrashReprovision Code = "crash-reprovision"
	CodeCPUHigh          Code = "cpu-high"
	CodeCPULowSustained  Code = "cpu-low-sustained"
	CodeTargetAbove      Code = "target-above"
	CodeTargetBelow      Code = "target-below"
	CodeNoDataHold       Code = "nodata-hold"
	CodeLaunchInFlight   Code = "launch-in-flight"
	CodeAtMaxServers     Code = "at-max-servers"
	CodeAtMinServers     Code = "at-min-servers"
	CodeMaxServersClamp  Code = "max-servers-clamp"
	CodeAwaitingLow      Code = "awaiting-consecutive-low"
	CodeSteady           Code = "steady"
	CodeTierUnseen       Code = "tier-unseen"
)

// TierObservation is one tier's monitoring aggregate for one control
// period — the evaluator's entire input for that tier.
type TierObservation struct {
	// Seen is false when the view carried no stats at all for the tier.
	Seen bool
	// Ready is the number of VMs serving traffic; Live additionally counts
	// VMs still provisioning.
	Ready, Live int
	// MeanCPU is the tier's mean utilization over the period.
	MeanCPU float64
	// Crashed counts serving VMs the hypervisor census reports dead.
	Crashed int
	// NoData marks a monitor-blackout period: the zero aggregates mean
	// "unknown", not "idle".
	NoData bool
}

// VerdictKind classifies an evaluator output.
type VerdictKind int

// Verdict kinds.
const (
	// VerdictHold is an explicit decision not to act, with a coded cause.
	VerdictHold VerdictKind = iota
	// VerdictScaleOut / VerdictScaleIn add or remove one VM.
	VerdictScaleOut
	VerdictScaleIn
)

// Verdict is one evaluator decision for one tier.
type Verdict struct {
	Kind VerdictKind
	Tier string
	Code Code
	// Reason is the human-readable justification (an action's reason or a
	// hold's detail).
	Reason string
}

// ScalingEvaluator evaluates ScalingRules against per-tier observations:
// the threshold VM-level policy ("quick start, slow turn off") with crash
// re-provisioning and blackout holds. It carries the consecutive-low
// counters between periods, which is its only state.
type ScalingEvaluator struct {
	rules  ScalingRules
	lowRun map[string]int
}

// NewScalingEvaluator validates the rules and returns a fresh evaluator.
func NewScalingEvaluator(rules ScalingRules) (*ScalingEvaluator, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	return &ScalingEvaluator{rules: rules, lowRun: make(map[string]int)}, nil
}

// Evaluate returns the period's verdicts in tier order: scaling decisions
// plus a hold for every tier explicitly left alone, so inaction is as
// explainable as action.
func (e *ScalingEvaluator) Evaluate(obs map[string]TierObservation) []Verdict {
	var out []Verdict
	for _, tierName := range e.rules.ScalableTiers {
		ts := obs[tierName]
		if !ts.Seen {
			out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeTierUnseen})
			continue
		}
		// Dead capacity first: the hypervisor census is authoritative even
		// when monitoring is dark, and a crashed VM must be replaced now —
		// waiting for the survivors' CPU to climb costs a full control
		// period of degraded service per crash.
		if ts.Crashed > 0 {
			e.lowRun[tierName] = 0
			n := ts.Crashed
			if room := e.rules.MaxServers - ts.Live; n > room {
				n = room
			}
			for i := 0; i < n; i++ {
				out = append(out, Verdict{
					Kind: VerdictScaleOut,
					Tier: tierName,
					Code: CodeCrashReprovision,
					Reason: fmt.Sprintf("re-provision %d crashed VM(s) (census: %d serving)",
						ts.Crashed, ts.Ready),
				})
			}
			if n < ts.Crashed {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeMaxServersClamp,
					Reason: fmt.Sprintf("%d of %d replacements dropped: %d live at max %d",
						ts.Crashed-n, ts.Crashed, ts.Live, e.rules.MaxServers)})
			}
			continue
		}
		// A blackout period carries no usable utilization signal: hold the
		// current topology rather than treat "no samples" as "0% CPU" and
		// start a spurious scale-in countdown on stale data.
		if ts.NoData {
			out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeNoDataHold,
				Reason: "no monitoring samples this period"})
			continue
		}
		switch {
		case ts.MeanCPU > e.rules.UpperCPU:
			e.lowRun[tierName] = 0
			// "Quick start": trigger on a single hot period — but never
			// stack launches while one VM is already provisioning.
			if ts.Live > ts.Ready {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeLaunchInFlight,
					Reason: fmt.Sprintf("%d live > %d ready", ts.Live, ts.Ready)})
				continue
			}
			if ts.Live >= e.rules.MaxServers {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeAtMaxServers,
					Reason: fmt.Sprintf("cpu %.0f%% high with %d live at max %d",
						ts.MeanCPU*100, ts.Live, e.rules.MaxServers)})
				continue
			}
			out = append(out, Verdict{
				Kind: VerdictScaleOut,
				Tier: tierName,
				Code: CodeCPUHigh,
				Reason: fmt.Sprintf("cpu %.0f%% > %.0f%% upper bound",
					ts.MeanCPU*100, e.rules.UpperCPU*100),
			})
		case ts.MeanCPU < e.rules.LowerCPU:
			// "Slow turn off": require consecutive quiet periods, and
			// never remove a VM while another change is in flight.
			if ts.Live != ts.Ready {
				e.lowRun[tierName] = 0
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeLaunchInFlight,
					Reason: fmt.Sprintf("%d live != %d ready", ts.Live, ts.Ready)})
				continue
			}
			e.lowRun[tierName]++
			if e.lowRun[tierName] < e.rules.LowerConsecutive {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeAwaitingLow,
					Reason: fmt.Sprintf("quiet period %d of %d",
						e.lowRun[tierName], e.rules.LowerConsecutive)})
				continue
			}
			e.lowRun[tierName] = 0
			if ts.Ready <= e.rules.MinServers {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeAtMinServers,
					Reason: fmt.Sprintf("%d ready at min %d", ts.Ready, e.rules.MinServers)})
				continue
			}
			out = append(out, Verdict{
				Kind: VerdictScaleIn,
				Tier: tierName,
				Code: CodeCPULowSustained,
				Reason: fmt.Sprintf("cpu < %.0f%% for %d consecutive periods",
					e.rules.LowerCPU*100, e.rules.LowerConsecutive),
			})
		default:
			e.lowRun[tierName] = 0
			out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeSteady})
		}
	}
	return out
}

// TargetEvaluator evaluates TargetRules plus the shared capacity bounds:
// the modern EC2 "target tracking" strategy. Each period it computes the
// capacity that would bring the tier's CPU to the setpoint,
//
//	desired = ceil(current · cpu / target)
//
// scaling out immediately and scaling in only after desired has stayed
// below current for LowerConsecutive periods.
type TargetEvaluator struct {
	rules  ScalingRules
	target float64
	lowRun map[string]int
}

// NewTargetEvaluator validates the rules and the setpoint and returns a
// fresh evaluator.
func NewTargetEvaluator(rules ScalingRules, target TargetRules) (*TargetEvaluator, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	return &TargetEvaluator{rules: rules, target: target.TargetCPU, lowRun: make(map[string]int)}, nil
}

// Evaluate returns the period's verdicts in tier order.
func (e *TargetEvaluator) Evaluate(obs map[string]TierObservation) []Verdict {
	var out []Verdict
	for _, tierName := range e.rules.ScalableTiers {
		ts := obs[tierName]
		if !ts.Seen || ts.Ready == 0 {
			out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeTierUnseen})
			continue
		}
		if ts.NoData {
			out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeNoDataHold,
				Reason: "no monitoring samples this period"})
			continue
		}
		desired := int(math.Ceil(float64(ts.Ready) * ts.MeanCPU / e.target))
		if desired < e.rules.MinServers {
			desired = e.rules.MinServers
		}
		if desired > e.rules.MaxServers {
			desired = e.rules.MaxServers
		}
		switch {
		case desired > ts.Ready:
			e.lowRun[tierName] = 0
			// One launch per period, and none while a VM is provisioning —
			// the same pacing the threshold policy uses.
			if ts.Live > ts.Ready {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeLaunchInFlight,
					Reason: fmt.Sprintf("%d live > %d ready", ts.Live, ts.Ready)})
				continue
			}
			if ts.Live >= e.rules.MaxServers {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeAtMaxServers,
					Reason: fmt.Sprintf("want %d servers with %d live at max %d",
						desired, ts.Live, e.rules.MaxServers)})
				continue
			}
			out = append(out, Verdict{
				Kind: VerdictScaleOut,
				Tier: tierName,
				Code: CodeTargetAbove,
				Reason: fmt.Sprintf("target tracking: cpu %.0f%% wants %d servers (have %d)",
					ts.MeanCPU*100, desired, ts.Ready),
			})
		case desired < ts.Ready:
			if ts.Live != ts.Ready {
				e.lowRun[tierName] = 0
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeLaunchInFlight,
					Reason: fmt.Sprintf("%d live != %d ready", ts.Live, ts.Ready)})
				continue
			}
			e.lowRun[tierName]++
			if e.lowRun[tierName] < e.rules.LowerConsecutive {
				out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeAwaitingLow,
					Reason: fmt.Sprintf("quiet period %d of %d",
						e.lowRun[tierName], e.rules.LowerConsecutive)})
				continue
			}
			e.lowRun[tierName] = 0
			out = append(out, Verdict{
				Kind: VerdictScaleIn,
				Tier: tierName,
				Code: CodeTargetBelow,
				Reason: fmt.Sprintf("target tracking: cpu %.0f%% wants %d servers for %d periods",
					ts.MeanCPU*100, desired, e.rules.LowerConsecutive),
			})
		default:
			e.lowRun[tierName] = 0
			out = append(out, Verdict{Kind: VerdictHold, Tier: tierName, Code: CodeSteady})
		}
	}
	return out
}
