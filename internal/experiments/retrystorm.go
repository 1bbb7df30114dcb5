package experiments

import (
	"fmt"
	"strings"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/controller"
	"dcm/internal/degrade"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/runner"
	"dcm/internal/workload"
)

// The retry-storm experiment reproduces the metastable-failure mode the
// resilience layer exists to contain. Two Tomcats serve a closed-loop
// population sized past the capacity the pair retains once one server is
// degraded; a degraded-server chaos fault then inflates one Tomcat's base
// service time for most of the run. Without deadlines the stricken server
// traps its users at ever-higher concurrency — exactly Eq. 5's
// degradation regime — and goodput (completions within the SLA)
// collapses. Naive retries free the trapped users but amplify offered
// load, the textbook retry storm. The full ladder adds circuit breakers
// (route around the sick server), bounded queues and CoDel shedding
// (keep the healthy server at its good-throughput operating point), which
// is what actually restores goodput. RunRetryStorm measures the three
// rungs under one seed so the ordering is directly comparable.

// The storm's fixed shape: the users' think time, and how far the fault
// slows the degraded Tomcat's base service time. With the default 500
// users, a 500 ms think offers roughly one healthy Tomcat's capacity —
// comfortable for the pair, a genuine overload once one server is degraded
// to a fraction of its throughput.
const (
	retryStormThinkTime     = 500 * time.Millisecond
	retryStormDegradeFactor = 12
)

// retryStormTimeout is the per-request deadline shared by the resilient
// rungs; it doubles as the goodput SLA for every rung including the
// resilience-free baseline.
const retryStormTimeout = time.Second

// RetryStormConfig parameterizes the experiment. The zero value selects
// calibrated defaults that produce the storm (see defaults).
type RetryStormConfig struct {
	// Seed drives all randomness (topology, fault victim draw, workload,
	// retry jitter).
	Seed uint64
	// Users sizes the closed-loop population (default 500).
	Users int
	// DegradeAt and DegradeFor time the degraded-server fault on Tomcat
	// "app-1" (defaults: 20 s into the run, lasting 100 s).
	DegradeAt  time.Duration
	DegradeFor time.Duration
	// Horizon bounds the run (default 140 s: the fault window plus a
	// short recovery tail).
	Horizon time.Duration
	// Invariants enables the runtime invariant checker for every rung.
	// The checker is read-only and draws no randomness, so results are
	// byte-identical to a plain run.
	Invariants bool
	// Degrade appends a fourth rung to the ladder: the metastable
	// *retries* preset plus the self-healing overload layer
	// (internal/degrade) — detectors on a 1 s tick, brownout shed / retry
	// tightening / admission scaling on detection, hysteresis restore on
	// recovery, under policy.Default().Degrade. The classic three rungs
	// are untouched, so a Degrade run's first three results stay
	// byte-identical to a plain run's.
	Degrade bool
}

func (c *RetryStormConfig) defaults() {
	if c.Users <= 0 {
		c.Users = 500
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = 20 * time.Second
	}
	if c.DegradeFor <= 0 {
		c.DegradeFor = 100 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 140 * time.Second
	}
}

// RetryStormVariants is the escalation ladder, weakest first.
func RetryStormVariants() []string { return []string{"none", "retries", "full"} }

// RetryStormDegradeVariant is the optional fourth rung: the full ladder
// plus the self-healing overload layer.
const RetryStormDegradeVariant = "degrade"

// retryStormResilience maps a ladder rung to its resilience config. The
// "none" rung enables SLA accounting only — zero data-plane features —
// so the baseline's goodput is measured on the same yardstick. The
// "degrade" rung deliberately shares the *retries* preset — the
// metastable configuration — so the run demonstrates the self-healing
// layer rescuing a collapse that static defenses were not armed against,
// rather than riding on a stack that never collapses in the first place.
func retryStormResilience(variant string) (*resilience.Config, error) {
	switch variant {
	case "none":
		return &resilience.Config{SLA: retryStormTimeout}, nil
	case "retries", RetryStormDegradeVariant:
		return resilience.Preset("retries", retryStormTimeout)
	case "full":
		return resilience.Preset("full", retryStormTimeout)
	default:
		return nil, fmt.Errorf("experiments: unknown retry-storm variant %q (have %v)",
			variant, RetryStormVariants())
	}
}

// RetryStormResult is one rung's outcome.
type RetryStormResult struct {
	Variant string `json:"variant"`
	// Goodput is completions within the SLA; GoodputPerSecond normalizes
	// it by the horizon.
	Goodput          uint64  `json:"goodput"`
	GoodputPerSecond float64 `json:"goodputPerSecond"`
	// Completed counts all completions, good or late.
	Completed uint64 `json:"completed"`
	// Errors is the client-visible failure count (after retries).
	Errors uint64 `json:"errors"`
	// Retries is the number of retry attempts the clients issued.
	Retries uint64 `json:"retries"`
	// Dispositions is the full request-outcome taxonomy.
	Dispositions metrics.DispositionCounts `json:"dispositions"`
	// InvariantViolations holds any structural-law violations the runtime
	// checker recorded (only populated when RetryStormConfig.Invariants is
	// set; omitted when the run was clean).
	InvariantViolations []invariant.Violation `json:"invariantViolations,omitempty"`

	// The degrade rung's extras (absent from the classic rungs, so their
	// JSON stays byte-identical). Degrade is the supervisor's full record;
	// PreFaultGoodputPS and TailGoodputPS are the detector timeline's mean
	// goodput before the fault and over the final 10 s, and RecoveryRatio
	// is their quotient — the ">= 0.8 of pre-fault steady state" recovery
	// criterion. AuditCodes tallies the brownout reason codes.
	Degrade           *degrade.Report        `json:"degrade,omitempty"`
	PreFaultGoodputPS float64                `json:"preFaultGoodputPS,omitempty"`
	TailGoodputPS     float64                `json:"tailGoodputPS,omitempty"`
	RecoveryRatio     float64                `json:"recoveryRatio,omitempty"`
	AuditCodes        []controller.CodeCount `json:"auditCodes,omitempty"`
}

// RunRetryStormVariant executes one rung of the ladder.
func RunRetryStormVariant(cfg RetryStormConfig, variant string) (RetryStormResult, error) {
	cfg.defaults()
	res, err := retryStormResilience(variant)
	if err != nil {
		return RetryStormResult{}, err
	}

	appCfg := ntier.DefaultConfig()
	appCfg.AppServers = 2
	appCfg.Resilience = *res
	r, err := assemble(runPlan{
		seed:  cfg.Seed,
		chain: &appCfg,
		chk:   checker(cfg.Invariants),
		// The degraded-server fault targets "app-1" by name so every rung
		// degrades the same Tomcat regardless of rng stream differences.
		chaos: &chaos.Schedule{Name: "retry-storm", Faults: []chaos.Fault{{
			Kind:     chaos.KindDegrade,
			At:       cfg.DegradeAt,
			Duration: cfg.DegradeFor,
			Tier:     ntier.TierApp,
			VM:       "app-1",
			Factor:   retryStormDegradeFactor,
		}}},
		retry: &res.Retry,
		load: func(r *run, src *rng.Rand) (workload.Generator, error) {
			wl, err := workload.NewClosedLoop(r.eng, src, r.app, workload.ClosedLoopConfig{
				Users:     cfg.Users,
				ThinkTime: retryStormThinkTime,
			})
			if err != nil {
				return nil, err
			}
			wl.SetRetrier(r.ret)
			return wl, nil
		},
		// The degrade rung attaches the self-healing supervisor on top of
		// the retries preset. The supervisor draws no randomness, so the
		// rng split order of every other rung is untouched.
		degrade: variant == RetryStormDegradeVariant,
		horizon: cfg.Horizon,
	})
	if err != nil {
		return RetryStormResult{}, fmt.Errorf("experiments: retry storm: %w", err)
	}

	out := RetryStormResult{
		Variant:             variant,
		Goodput:             r.app.TotalGood(),
		GoodputPerSecond:    float64(r.app.TotalGood()) / cfg.Horizon.Seconds(),
		Completed:           r.app.TotalCompletions(),
		Errors:              r.app.TotalErrors(),
		Retries:             r.gen.(*workload.ClosedLoop).TotalRetries(),
		Dispositions:        r.app.Dispositions(),
		InvariantViolations: r.violations,
		Degrade:             r.degrade,
	}
	if r.degrade != nil {
		out.PreFaultGoodputPS, out.TailGoodputPS, out.RecoveryRatio =
			recoveryMetrics(r.degrade.Timeline, cfg.DegradeAt, cfg.Horizon)
		out.AuditCodes = r.audit.CodeCounts()
	}
	return out, nil
}

// recoveryMetrics condenses the detector timeline into the recovery
// criterion: mean goodput per second over the pre-fault ticks, over the
// final 10 s tail, and the tail/pre-fault quotient.
func recoveryMetrics(tl []degrade.TimelinePoint, degradeAt, horizon time.Duration) (pre, tail, ratio float64) {
	tailStart := horizon - 10*time.Second
	var preSum, tailSum float64
	var preN, tailN int
	for _, pt := range tl {
		if pt.At <= degradeAt {
			preSum += pt.GoodPS
			preN++
		}
		if pt.At > tailStart {
			tailSum += pt.GoodPS
			tailN++
		}
	}
	if preN > 0 {
		pre = preSum / float64(preN)
	}
	if tailN > 0 {
		tail = tailSum / float64(tailN)
	}
	if pre > 0 {
		ratio = tail / pre
	}
	return pre, tail, ratio
}

// RunRetryStorm runs the whole ladder concurrently (each rung has its own
// engine and rng) and returns results in ladder order. With cfg.Degrade
// the self-healing rung is appended after the classic three.
func RunRetryStorm(cfg RetryStormConfig) ([]RetryStormResult, error) {
	variants := RetryStormVariants()
	if cfg.Degrade {
		variants = append(variants, RetryStormDegradeVariant)
	}
	return runner.Map(variants, 0, func(_ int, variant string) (RetryStormResult, error) {
		return RunRetryStormVariant(cfg, variant)
	})
}

// RenderRetryStorm renders the ladder comparison table. retries/succ is
// the retry amplification: retry attempts per successful completion, the
// storm's load-multiplication factor.
func RenderRetryStorm(results []RetryStormResult) string {
	tb := metrics.NewTable("variant", "goodput/s", "good", "completed", "errors",
		"retries", "retries/succ", "timeouts", "rejected", "shed", "brk-open")
	for _, r := range results {
		perSucc := 0.0
		if r.Completed > 0 {
			perSucc = float64(r.Retries) / float64(r.Completed)
		}
		tb.AddRow(r.Variant,
			fmtF(r.GoodputPerSecond, 1),
			fmt.Sprintf("%d", r.Goodput),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", r.Retries),
			fmtF(perSucc, 2),
			fmt.Sprintf("%d", r.Dispositions.TimedOut),
			fmt.Sprintf("%d", r.Dispositions.Rejected),
			fmt.Sprintf("%d", r.Dispositions.Shed),
			fmt.Sprintf("%d", r.Dispositions.BreakerOpen))
	}
	return tb.String()
}

// RenderDegradeSummary renders the self-healing rung's degradation
// report: detector activity, every brownout episode with its trigger,
// the applied actions and the recovery criterion. Empty when the result
// carries no degrade report.
func RenderDegradeSummary(r RetryStormResult) string {
	if r.Degrade == nil {
		return ""
	}
	var sb strings.Builder
	d := r.Degrade
	fmt.Fprintf(&sb, "self-healing (%s rung):\n", r.Variant)
	fmt.Fprintf(&sb, "  detector   %d ticks, %d unhealthy\n", d.Ticks, d.UnhealthyTicks)
	if len(d.Episodes) == 0 {
		sb.WriteString("  episodes   none (no collapse detected)\n")
	} else {
		fmt.Fprintf(&sb, "  episodes   %d brownout episode(s)\n", len(d.Episodes))
		for _, ep := range d.Episodes {
			exit := "open at horizon"
			if ep.ExitAt > 0 {
				exit = fmt.Sprintf("exit t=%v", ep.ExitAt)
			}
			fmt.Fprintf(&sb, "             enter t=%v  %s  (%s)\n", ep.EnterAt, exit, ep.Reason)
		}
	}
	fmt.Fprintf(&sb, "  actions    %d brownout sheds\n", d.BrownoutSheds)
	fmt.Fprintf(&sb, "  recovery   pre-fault %.1f good/s -> tail %.1f good/s (ratio %.2f)\n",
		r.PreFaultGoodputPS, r.TailGoodputPS, r.RecoveryRatio)
	return sb.String()
}

// RenderDispositionSummary renders one row per resilience-enabled result:
// goodput next to the full request-outcome taxonomy and the retry
// amplification. Results without disposition data are skipped; the empty
// string means none had any (render nothing).
func RenderDispositionSummary(results ...*ScenarioResult) string {
	tb := metrics.NewTable("controller", "goodput", "ok", "timed-out", "rejected",
		"shed", "brk-open", "errors", "retries", "retries/succ")
	rows := 0
	for _, r := range results {
		if r.Dispositions == nil {
			continue
		}
		rows++
		perSucc := 0.0
		if r.TotalCompleted > 0 {
			perSucc = float64(r.Retries) / float64(r.TotalCompleted)
		}
		d := r.Dispositions
		tb.AddRow(string(r.Kind),
			fmt.Sprintf("%d", r.Goodput),
			fmt.Sprintf("%d", d.OK),
			fmt.Sprintf("%d", d.TimedOut),
			fmt.Sprintf("%d", d.Rejected),
			fmt.Sprintf("%d", d.Shed),
			fmt.Sprintf("%d", d.BreakerOpen),
			fmt.Sprintf("%d", d.Errored),
			fmt.Sprintf("%d", r.Retries),
			fmtF(perSucc, 2))
	}
	if rows == 0 {
		return ""
	}
	return tb.String()
}
