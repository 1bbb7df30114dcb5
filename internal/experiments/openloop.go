package experiments

import (
	"fmt"
	"strings"
	"time"

	"dcm/internal/degrade"
	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/workload"
)

// The open-loop experiments drive the n-tier application with the workload
// library's non-homogeneous Poisson generator instead of a closed user
// population. Closed loops self-throttle — every queued request is a user
// not issuing the next one — so they can never push the system far past
// saturation. Open-loop arrivals keep coming regardless of backlog, which
// is how real internet traffic behaves and what the admission-control
// stack (bounded queues + CoDel + criticality) actually exists for. The
// request stream is a two-class mix: a premium class (priority 1, never
// CoDel-shed) and a basic class, so overload shows up as *selective*
// degradation — basic absorbs the shedding while premium goodput holds.

// The open-loop runs' fixed shape: the per-request deadline and basic-class
// SLA (the premium class's SLO is half of it), the premium class's share of
// arrivals, and the flash crowd's plateau as a multiple of the base rate.
const (
	openLoopTimeout      = time.Second
	openLoopPremiumShare = 0.2
	flashPeakFactor      = 6
)

// OpenLoopConfig parameterizes the open-loop experiments. The zero value
// selects calibrated defaults (see defaults). The app runs the "full"
// resilience preset minus its client retries: the open-loop generator
// takes no retrier, so a failed request is never reissued.
type OpenLoopConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Rate is the base arrival rate in requests per second (default 300,
	// around the default two-Tomcat deployment's knee).
	Rate float64
	// Horizon bounds the run (default 120 s constant, 240 s flashcrowd).
	Horizon time.Duration
	// AppServers sizes the Tomcat tier (default 2).
	AppServers int
	// Invariants attaches the runtime invariant checker (including the
	// per-class conservation laws) and sweeps once at the end.
	Invariants bool
	// Degrade attaches the self-healing overload layer: on detected
	// collapse the brownout sheds best-effort arrivals at the front door
	// (premium stays exempt) and lowers admission caps, restoring through
	// hysteresis, under policy.Default().Degrade. Off (the default) leaves
	// the run byte-identical.
	Degrade bool
}

func (c *OpenLoopConfig) defaults(flash bool) {
	if c.Rate <= 0 {
		c.Rate = 300
	}
	if c.Horizon <= 0 {
		if flash {
			c.Horizon = 240 * time.Second
		} else {
			c.Horizon = 120 * time.Second
		}
	}
	if c.AppServers <= 0 {
		c.AppServers = 2
	}
}

// spec renders the config as a declarative WorkloadSpec — the experiment
// goes through the same strict spec path a workload file would.
func (c OpenLoopConfig) spec(flash bool) workload.WorkloadSpec {
	arr := &workload.RateSpec{Curve: workload.CurveConstant, Rate: c.Rate}
	name := "openloop"
	if flash {
		name = "flashcrowd"
		arr = &workload.RateSpec{
			Curve:       workload.CurveFlashCrowd,
			Rate:        c.Rate,
			PeakRate:    flashPeakFactor * c.Rate,
			AtSeconds:   (c.Horizon / 4).Seconds(),
			RampSeconds: 15,
			HoldSeconds: (c.Horizon / 4).Seconds(),
		}
	}
	return workload.WorkloadSpec{
		Name:     name,
		Kind:     workload.KindOpen,
		Arrivals: arr,
		Classes: []workload.ClassSpec{
			{Name: "premium", Weight: openLoopPremiumShare, Priority: 1,
				SLOSeconds: (openLoopTimeout / 2).Seconds()},
			{Name: "basic", Weight: 1 - openLoopPremiumShare},
		},
	}
}

// OpenLoopResult reports one open-loop run.
type OpenLoopResult struct {
	Name     string        `json:"name"`
	BaseRate float64       `json:"baseRate"`
	PeakRate float64       `json:"peakRate,omitempty"`
	Horizon  time.Duration `json:"horizon"`
	// Scheduled counts accepted (injected) arrivals; Thinned counts
	// candidate arrivals the NHPP thinning rejected.
	Scheduled uint64 `json:"scheduled"`
	Thinned   uint64 `json:"thinned"`
	// Goodput is completions within each class's SLO.
	Goodput      uint64                    `json:"goodput"`
	Completed    uint64                    `json:"completed"`
	Errors       uint64                    `json:"errors"`
	Dispositions metrics.DispositionCounts `json:"dispositions"`
	// Classes is the per-class breakdown in class order.
	Classes []graph.ClassStat `json:"classes"`
	Events  uint64            `json:"events"`
	Wall    time.Duration     `json:"wall"`

	InvariantViolations []invariant.Violation `json:"invariantViolations,omitempty"`
	// Degrade is the self-healing supervisor's record (Degrade runs only).
	Degrade *degrade.Report `json:"degrade,omitempty"`
}

// RunOpenLoop runs the constant-rate open-loop experiment.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	cfg.defaults(false)
	return runOpenLoop(cfg, false)
}

// RunFlashCrowd runs the flash-crowd (trapezoid spike) experiment.
func RunFlashCrowd(cfg OpenLoopConfig) (OpenLoopResult, error) {
	cfg.defaults(true)
	return runOpenLoop(cfg, true)
}

func runOpenLoop(cfg OpenLoopConfig, flash bool) (OpenLoopResult, error) {
	spec := cfg.spec(flash)
	res, err := resilience.Preset("full", openLoopTimeout)
	if err != nil {
		return OpenLoopResult{}, fmt.Errorf("experiments: open loop resilience: %w", err)
	}
	appCfg := ntier.DefaultConfig()
	appCfg.AppServers = cfg.AppServers
	appCfg.Resilience = *res
	appCfg.Classes = appClasses(spec)
	r, err := assemble(runPlan{
		seed:  cfg.Seed,
		chain: &appCfg,
		chk:   checker(cfg.Invariants),
		load: func(r *run, src *rng.Rand) (workload.Generator, error) {
			return spec.Build(r.eng, src, r.app)
		},
		degrade: cfg.Degrade,
		horizon: cfg.Horizon,
	})
	if err != nil {
		return OpenLoopResult{}, fmt.Errorf("experiments: open loop: %w", err)
	}

	ol := r.gen.(*workload.OpenLoopGen)
	out := OpenLoopResult{
		Name:                spec.Name,
		BaseRate:            cfg.Rate,
		Horizon:             cfg.Horizon,
		Scheduled:           ol.Scheduled(),
		Thinned:             ol.Thinned(),
		Goodput:             r.app.TotalGood(),
		Completed:           r.app.TotalCompletions(),
		Errors:              r.app.TotalErrors(),
		Dispositions:        r.app.Dispositions(),
		Classes:             r.app.ClassStats(),
		Events:              r.eng.Processed(),
		Wall:                r.wall,
		InvariantViolations: r.violations,
		Degrade:             r.degrade,
	}
	if flash {
		out.PeakRate = spec.Arrivals.PeakRate
	}
	return out, nil
}

// RenderOpenLoop renders the run summary plus the per-class section.
func RenderOpenLoop(r OpenLoopResult) string {
	var sb strings.Builder
	if r.PeakRate > 0 {
		fmt.Fprintf(&sb, "  arrivals   %s curve, %.0f -> %.0f req/s over %v\n",
			r.Name, r.BaseRate, r.PeakRate, r.Horizon)
	} else {
		fmt.Fprintf(&sb, "  arrivals   constant %.0f req/s over %v\n", r.BaseRate, r.Horizon)
	}
	fmt.Fprintf(&sb, "  scheduled  %d arrivals (%d candidates thinned)\n", r.Scheduled, r.Thinned)
	fmt.Fprintf(&sb, "  outcome    %d good / %d completed / %d errors\n",
		r.Goodput, r.Completed, r.Errors)
	d := r.Dispositions
	fmt.Fprintf(&sb, "  taxonomy   ok %d | timeout %d | rejected %d | shed %d | brk-open %d | errored %d\n",
		d.OK, d.TimedOut, d.Rejected, d.Shed, d.BreakerOpen, d.Errored)
	fmt.Fprintf(&sb, "  events     %d (wall %v)\n", r.Events, r.Wall.Round(time.Millisecond))
	if len(r.InvariantViolations) > 0 {
		fmt.Fprintf(&sb, "  INVARIANT VIOLATIONS: %d\n", len(r.InvariantViolations))
	}
	sb.WriteString("\n")
	sb.WriteString(RenderClassStats(r.Classes))
	return sb.String()
}

// RenderClassStats renders the per-class breakdown table. The shed column
// is the selective-degradation signal: a priority class must stay at zero
// while best-effort classes absorb the overload.
func RenderClassStats(classes []graph.ClassStat) string {
	if len(classes) == 0 {
		return ""
	}
	tb := metrics.NewTable("class", "prio", "injected", "ok", "good", "good%",
		"timeout", "rejected", "shed", "errors", "meanRT")
	for _, c := range classes {
		goodPct := 0.0
		if c.Injected > 0 {
			goodPct = 100 * float64(c.Good) / float64(c.Injected)
		}
		tb.AddRow(c.Name,
			fmt.Sprintf("%d", c.Priority),
			fmt.Sprintf("%d", c.Injected),
			fmt.Sprintf("%d", c.Dispositions.OK),
			fmt.Sprintf("%d", c.Good),
			fmtF(goodPct, 1),
			fmt.Sprintf("%d", c.Dispositions.TimedOut),
			fmt.Sprintf("%d", c.Dispositions.Rejected),
			fmt.Sprintf("%d", c.Dispositions.Shed),
			fmt.Sprintf("%d", c.Errors),
			fmt.Sprintf("%.0fms", c.MeanRTms))
	}
	return tb.String()
}
