// Package policy is the declarative allocation-policy layer: every
// hand-tunable rule of the controllers and the soft-resource planner — CPU
// thresholds with consecutive-window guards, capacity floors and ceilings,
// spare-headroom scaling, concurrency clamps, target-tracking setpoints and
// retry-budget knobs — expressed as typed rule structs that load from
// strict JSON and validate with actionable errors. The package holds rule
// parameters only; the decisions made with them are internal/controller's
// (the VM-level scaling rules) and internal/model's (the planner).
//
// The package is a leaf below internal/controller and internal/model: the
// controllers and the planner read these rule types directly, and there is
// no second copy of the policy anywhere else. Default() holds the paper's
// §V-B parameters and the planner's defaults, and is the only place they
// are written down; the checked-in policies/default.policy.json round-trips
// to Default(), and the equivalence tests in internal/experiments pin the
// behaviour it produces.
//
// Rules are also the search space of internal/autotune: its knobs address
// the scalar fields here by name and score each candidate rule set by
// running scenarios with it.
package policy

import (
	"errors"
	"fmt"
)

// ErrBadRules is returned for invalid rule sets.
var ErrBadRules = errors.New("policy: invalid rules")

// Rules is a complete declarative allocation policy: everything a
// controller consults that is not live monitoring data.
type Rules struct {
	// Name labels the policy in reports and autotune output.
	Name string `json:"name,omitempty"`
	// Scaling is the VM-level threshold rule set shared by the
	// EC2-AutoScale baseline and DCM.
	Scaling ScalingRules `json:"scaling"`
	// Allocation parameterizes the soft-resource planner (DCM's APP-agent).
	Allocation AllocationRules `json:"allocation"`
	// Target parameterizes the target-tracking baseline.
	Target TargetRules `json:"targetTracking"`
	// Retry adjusts the client retry policy on resilience-enabled runs.
	Retry RetryRules `json:"retry"`
	// Degrade parameterizes the self-healing overload controller
	// (internal/degrade): detector thresholds, hysteresis bands and
	// brownout actions. The zero value disables the layer entirely.
	Degrade DegradeRules `json:"degrade"`
}

// ScalingRules is the VM-level capacity rule set of §V-B: "quick start,
// slow turn off" thresholds plus per-tier server bounds.
type ScalingRules struct {
	// UpperCPU triggers scale-out when a tier's mean CPU exceeds it during
	// one control period (paper: 0.80).
	UpperCPU float64 `json:"upperCPU"`
	// LowerCPU and LowerConsecutive trigger scale-in when the tier's CPU
	// stays below LowerCPU for LowerConsecutive consecutive periods
	// (paper: 0.40 and 3).
	LowerCPU         float64 `json:"lowerCPU"`
	LowerConsecutive int     `json:"lowerConsecutive"`
	// MinServers and MaxServers bound each scalable tier's size (capacity
	// floor and ceiling).
	MinServers int `json:"minServers"`
	MaxServers int `json:"maxServers"`
	// ScalableTiers lists the tiers the VM level manages (paper: the
	// Tomcat and MySQL tiers; Apache is never scaled).
	ScalableTiers []string `json:"scalableTiers"`
}

// AllocationRules parameterizes the concurrency-aware planner: how the
// model-derived optimum N_b becomes pool sizes.
type AllocationRules struct {
	// Headroom scales the theoretical N_b up to a practical pool size
	// (§III-C's "not all threads will be in Active state"); 1.0 uses N_b
	// directly.
	Headroom float64 `json:"headroom"`
	// WebThreads is the fixed (generous) Apache pool size per web server;
	// Apache is never the concurrency-sensitive tier.
	WebThreads int `json:"webThreads"`
	// AppThreadsFloor and DBConnsFloor are the concurrency clamps: no pool
	// is ever set below these, so a degenerate model fit cannot starve a
	// tier completely (the audit log surfaces the clamp as
	// "concurrency-clamp").
	AppThreadsFloor int `json:"appThreadsFloor"`
	DBConnsFloor    int `json:"dbConnsFloor"`
	// AppThreadsCap and DBConnsCap are optional concurrency ceilings
	// (0 = uncapped): a guard against a runaway fit planning pools far past
	// anything the hardware can hold.
	AppThreadsCap int `json:"appThreadsCap,omitempty"`
	DBConnsCap    int `json:"dbConnsCap,omitempty"`
}

// TargetRules parameterizes the target-tracking baseline controller.
type TargetRules struct {
	// TargetCPU is the utilization setpoint in (0, 1) the controller sizes
	// capacity toward (Default: 0.6).
	TargetCPU float64 `json:"targetCPU"`
}

// RetryRules adjusts the client retry policy on resilience-enabled runs.
// The zero value keeps the run's preset untouched; a non-zero MaxAttempts
// replaces the preset's attempt/budget knobs wholesale so an autotuner can
// search them.
type RetryRules struct {
	// MaxAttempts is the total number of tries per request (1 = no
	// retries). 0 leaves the scenario's resilience preset untouched.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// BudgetRatio is the retry-budget refill ratio (retries allowed per
	// successful request); 0 disables the budget. BudgetBurst is the token
	// bucket's burst capacity.
	BudgetRatio float64 `json:"budgetRatio,omitempty"`
	BudgetBurst int     `json:"budgetBurst,omitempty"`
	// Jitter is the relative backoff jitter in [0, 1).
	Jitter float64 `json:"jitter,omitempty"`
}

// Override reports whether the rules replace a preset's retry knobs.
func (r RetryRules) Override() bool { return r.MaxAttempts > 0 }

// DegradeRules parameterizes the self-healing overload controller: when
// the online detectors call the system overloaded, how hard the brownout
// sheds, and how sticky the enter/exit hysteresis is. The zero value
// disables the layer (Enabled reports false) and is valid.
type DegradeRules struct {
	// PeriodSeconds is the detector tick interval (default 1 s).
	PeriodSeconds float64 `json:"periodSeconds,omitempty"`
	// WarmupSeconds suppresses detection for the run's first stretch so a
	// closed-loop startup burst is not mistaken for collapse (default 10 s).
	WarmupSeconds float64 `json:"warmupSeconds,omitempty"`
	// CollapseRatio is the goodput-vs-offered-load collapse threshold: a
	// tick is unhealthy when good/offered falls below it while at least
	// MinOfferedPerSecond requests were offered (guards the ratio against
	// idle-period noise).
	CollapseRatio       float64 `json:"collapseRatio,omitempty"`
	MinOfferedPerSecond float64 `json:"minOfferedPerSecond,omitempty"`
	// RetryAmplification flags a tick when retry attempts per completion
	// exceed it — the storm's load-multiplication signature.
	RetryAmplification float64 `json:"retryAmplification,omitempty"`
	// QueueGradient flags a tick when the mean queue depth grew by more
	// than this factor across the detector window — the metastable
	// backlog build-up.
	QueueGradient float64 `json:"queueGradient,omitempty"`
	// EnterTicks consecutive unhealthy ticks enter brownout; ExitTicks
	// consecutive healthy ticks (and at least MinDwellSeconds since entry)
	// exit it. The asymmetry plus the dwell floor is the anti-flap band.
	EnterTicks      int     `json:"enterTicks,omitempty"`
	ExitTicks       int     `json:"exitTicks,omitempty"`
	MinDwellSeconds float64 `json:"minDwellSeconds,omitempty"`
	// ShedRatio is the fraction of best-effort arrivals the brownout
	// sheds at the front door (critical classes are never shed).
	ShedRatio float64 `json:"shedRatio,omitempty"`
	// RetryBudgetScale multiplies the retry budget during brownout
	// (e.g. 0.25 quarters it); AdmissionScale multiplies every bounded
	// queue's admission cap. Both restore to 1.0 on exit.
	RetryBudgetScale float64 `json:"retryBudgetScale,omitempty"`
	AdmissionScale   float64 `json:"admissionScale,omitempty"`
}

// Enabled reports whether the rules turn the degrade layer on. Any
// detector threshold set makes the layer live; the zero value is off.
func (d DegradeRules) Enabled() bool {
	return d.CollapseRatio > 0 || d.RetryAmplification > 0 || d.QueueGradient > 0
}

// Default returns the paper's §V-B scaling parameters, the planner's
// headroom, web-thread count and clamps, and the target-tracking setpoint.
// It is the one place these defaults are written; every controller and the
// planner read them from here. ScalableTiers names the app and db tiers of
// internal/ntier.
func Default() Rules {
	return Rules{
		Name: "default",
		Scaling: ScalingRules{
			UpperCPU:         0.80,
			LowerCPU:         0.40,
			LowerConsecutive: 3,
			MinServers:       1,
			MaxServers:       10,
			ScalableTiers:    []string{"app", "db"},
		},
		Allocation: AllocationRules{
			Headroom:        1.0,
			WebThreads:      1000,
			AppThreadsFloor: 1,
			DBConnsFloor:    1,
		},
		Target: TargetRules{TargetCPU: 0.6},
		Degrade: DegradeRules{
			PeriodSeconds:       1,
			WarmupSeconds:       10,
			CollapseRatio:       0.6,
			MinOfferedPerSecond: 20,
			RetryAmplification:  1.5,
			QueueGradient:       2,
			EnterTicks:          3,
			ExitTicks:           5,
			MinDwellSeconds:     30,
			ShedRatio:           0.3,
			RetryBudgetScale:    0.25,
			AdmissionScale:      0.25,
		},
	}
}

// Validate rejects inconsistent rule sets with errors that name the
// offending field and its constraint.
func (r Rules) Validate() error {
	if err := r.Scaling.Validate(); err != nil {
		return err
	}
	if err := r.Allocation.Validate(); err != nil {
		return err
	}
	if err := r.Target.Validate(); err != nil {
		return err
	}
	if err := r.Retry.Validate(); err != nil {
		return err
	}
	return r.Degrade.Validate()
}

// Validate checks the VM-level thresholds and bounds.
func (s ScalingRules) Validate() error {
	switch {
	case s.UpperCPU <= 0 || s.UpperCPU > 1:
		return fmt.Errorf("%w: scaling.upperCPU %v outside (0, 1]", ErrBadRules, s.UpperCPU)
	case s.LowerCPU < 0 || s.LowerCPU >= s.UpperCPU:
		return fmt.Errorf("%w: scaling.lowerCPU %v must be in [0, upperCPU %v)", ErrBadRules, s.LowerCPU, s.UpperCPU)
	case s.LowerConsecutive < 1:
		return fmt.Errorf("%w: scaling.lowerConsecutive %d must be >= 1", ErrBadRules, s.LowerConsecutive)
	case s.MinServers < 1:
		return fmt.Errorf("%w: scaling.minServers %d must be >= 1", ErrBadRules, s.MinServers)
	case s.MaxServers < s.MinServers:
		return fmt.Errorf("%w: scaling.maxServers %d must be >= minServers %d", ErrBadRules, s.MaxServers, s.MinServers)
	case len(s.ScalableTiers) == 0:
		return fmt.Errorf("%w: scaling.scalableTiers must name at least one tier", ErrBadRules)
	}
	seen := make(map[string]bool, len(s.ScalableTiers))
	for _, tier := range s.ScalableTiers {
		if tier == "" {
			return fmt.Errorf("%w: scaling.scalableTiers contains an empty tier name", ErrBadRules)
		}
		if seen[tier] {
			return fmt.Errorf("%w: scaling.scalableTiers lists %q twice", ErrBadRules, tier)
		}
		seen[tier] = true
	}
	return nil
}

// Validate checks the planner parameters.
func (a AllocationRules) Validate() error {
	switch {
	case a.Headroom <= 0:
		return fmt.Errorf("%w: allocation.headroom %v must be > 0", ErrBadRules, a.Headroom)
	case a.WebThreads < 1:
		return fmt.Errorf("%w: allocation.webThreads %d must be >= 1", ErrBadRules, a.WebThreads)
	case a.AppThreadsFloor < 1:
		return fmt.Errorf("%w: allocation.appThreadsFloor %d must be >= 1", ErrBadRules, a.AppThreadsFloor)
	case a.DBConnsFloor < 1:
		return fmt.Errorf("%w: allocation.dbConnsFloor %d must be >= 1", ErrBadRules, a.DBConnsFloor)
	case a.AppThreadsCap < 0 || (a.AppThreadsCap > 0 && a.AppThreadsCap < a.AppThreadsFloor):
		return fmt.Errorf("%w: allocation.appThreadsCap %d must be 0 or >= appThreadsFloor %d",
			ErrBadRules, a.AppThreadsCap, a.AppThreadsFloor)
	case a.DBConnsCap < 0 || (a.DBConnsCap > 0 && a.DBConnsCap < a.DBConnsFloor):
		return fmt.Errorf("%w: allocation.dbConnsCap %d must be 0 or >= dbConnsFloor %d",
			ErrBadRules, a.DBConnsCap, a.DBConnsFloor)
	}
	return nil
}

// Validate checks the target-tracking setpoint.
func (t TargetRules) Validate() error {
	if t.TargetCPU <= 0 || t.TargetCPU >= 1 {
		return fmt.Errorf("%w: targetTracking.targetCPU %v outside (0, 1)", ErrBadRules, t.TargetCPU)
	}
	return nil
}

// Validate checks the retry knobs.
func (r RetryRules) Validate() error {
	switch {
	case r.MaxAttempts < 0:
		return fmt.Errorf("%w: retry.maxAttempts %d must be >= 0", ErrBadRules, r.MaxAttempts)
	case r.BudgetRatio < 0:
		return fmt.Errorf("%w: retry.budgetRatio %v must be >= 0", ErrBadRules, r.BudgetRatio)
	case r.BudgetBurst < 0:
		return fmt.Errorf("%w: retry.budgetBurst %d must be >= 0", ErrBadRules, r.BudgetBurst)
	case r.Jitter < 0 || r.Jitter >= 1:
		return fmt.Errorf("%w: retry.jitter %v outside [0, 1)", ErrBadRules, r.Jitter)
	}
	return nil
}

// Validate checks the degrade knobs. The zero value (layer disabled) is
// valid; once any detector is armed the hysteresis and action knobs must
// be coherent.
func (d DegradeRules) Validate() error {
	switch {
	case d.PeriodSeconds < 0:
		return fmt.Errorf("%w: degrade.periodSeconds %v must be >= 0", ErrBadRules, d.PeriodSeconds)
	case d.WarmupSeconds < 0:
		return fmt.Errorf("%w: degrade.warmupSeconds %v must be >= 0", ErrBadRules, d.WarmupSeconds)
	case d.CollapseRatio < 0 || d.CollapseRatio > 1:
		return fmt.Errorf("%w: degrade.collapseRatio %v outside [0, 1]", ErrBadRules, d.CollapseRatio)
	case d.MinOfferedPerSecond < 0:
		return fmt.Errorf("%w: degrade.minOfferedPerSecond %v must be >= 0", ErrBadRules, d.MinOfferedPerSecond)
	case d.RetryAmplification < 0:
		return fmt.Errorf("%w: degrade.retryAmplification %v must be >= 0", ErrBadRules, d.RetryAmplification)
	case d.QueueGradient < 0:
		return fmt.Errorf("%w: degrade.queueGradient %v must be >= 0", ErrBadRules, d.QueueGradient)
	case d.EnterTicks < 0:
		return fmt.Errorf("%w: degrade.enterTicks %d must be >= 0", ErrBadRules, d.EnterTicks)
	case d.ExitTicks < 0:
		return fmt.Errorf("%w: degrade.exitTicks %d must be >= 0", ErrBadRules, d.ExitTicks)
	case d.MinDwellSeconds < 0:
		return fmt.Errorf("%w: degrade.minDwellSeconds %v must be >= 0", ErrBadRules, d.MinDwellSeconds)
	case d.ShedRatio < 0 || d.ShedRatio > 1:
		return fmt.Errorf("%w: degrade.shedRatio %v outside [0, 1]", ErrBadRules, d.ShedRatio)
	case d.RetryBudgetScale < 0 || d.RetryBudgetScale > 1:
		return fmt.Errorf("%w: degrade.retryBudgetScale %v outside [0, 1]", ErrBadRules, d.RetryBudgetScale)
	case d.AdmissionScale < 0 || d.AdmissionScale > 1:
		return fmt.Errorf("%w: degrade.admissionScale %v outside [0, 1]", ErrBadRules, d.AdmissionScale)
	}
	if !d.Enabled() {
		return nil
	}
	switch {
	case d.PeriodSeconds == 0:
		return fmt.Errorf("%w: degrade.periodSeconds must be > 0 when a detector is armed", ErrBadRules)
	case d.EnterTicks == 0:
		return fmt.Errorf("%w: degrade.enterTicks must be >= 1 when a detector is armed", ErrBadRules)
	case d.ExitTicks == 0:
		return fmt.Errorf("%w: degrade.exitTicks must be >= 1 when a detector is armed", ErrBadRules)
	}
	return nil
}
