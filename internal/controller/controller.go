// Package controller implements the paper's two scaling controllers:
//
//   - EC2AutoScale — the hardware-only baseline of §V-B, which follows the
//     Amazon EC2 Auto Scaling strategy: add a VM to a tier when its CPU
//     utilization exceeds an upper threshold during one control period,
//     and remove one only after the utilization stays below a lower
//     threshold for several consecutive periods ("quick start but slow
//     turn off", adopted from the AutoScale work);
//
//   - DCM — the paper's contribution: the same VM-level policy plus a
//     second level that recomputes the near-optimal soft-resource
//     allocation from the trained concurrency-aware models whenever the
//     topology (or anything else) has driven the current allocation away
//     from the optimum (§IV).
//
// A third, TargetTracking, is a stronger hardware-only baseline.
//
// The VM-level scaling rules themselves live here: the threshold rule
// shared by EC2AutoScale and DCM (optionally with a Holt forecast, see
// predict.go) and the target-tracking rule read SystemView.Tiers directly
// and decide in this package's own Action, Hold and ReasonCode types, so
// every decision and reason code is declared once. internal/policy only
// supplies the rule parameters they read.
//
// Controllers are pure decision functions over a SystemView; the actuators
// (internal/actuator) carry decisions out. That separation makes every
// policy unit-testable without a running simulation.
package controller

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/policy"
)

// TierStats aggregates one control period of monitoring data for a tier.
type TierStats struct {
	Tier string `json:"tier"`
	// Ready is the number of VMs serving traffic; Live additionally counts
	// VMs still in their preparation period.
	Ready int `json:"ready"`
	Live  int `json:"live"`
	// MeanCPU and MaxCPU aggregate the per-VM CPU utilizations.
	MeanCPU float64 `json:"meanCPU"`
	MaxCPU  float64 `json:"maxCPU"`
	// MeanActive is the mean request-processing concurrency per VM.
	MeanActive float64 `json:"meanActive"`
	// Throughput is the tier's aggregate completion rate.
	Throughput float64 `json:"throughput"`
	// Points are the fine-grained per-VM per-interval operating points
	// (concurrency, per-server throughput) behind the aggregates — the
	// "fine-grained measurement data" §III-C's online analysis regresses
	// on. May be empty when only aggregates are available.
	Points []model.Observation `json:"points,omitempty"`
	// Crashed is the number of the tier's serving VMs the hypervisor
	// census reports as crashed since the previous control period — dead
	// capacity the controller must re-provision.
	Crashed int `json:"crashed,omitempty"`
	// NoData marks a control period in which no monitoring samples
	// arrived for the tier (a monitor blackout): the CPU and throughput
	// aggregates are zeros that mean "unknown", not "idle". Controllers
	// must not mistake the one for the other.
	NoData bool `json:"noData,omitempty"`
	// Smoothed marks aggregates carried over from the last live period by
	// the sensor guard during a short blackout: good enough to hold
	// steady-state decisions, not fresh enough to train models on.
	Smoothed bool `json:"smoothed,omitempty"`
}

// SystemView is everything a controller sees at one control period.
type SystemView struct {
	At time.Duration `json:"at"`
	// Tiers maps tier name to its aggregated stats.
	Tiers map[string]TierStats `json:"tiers"`
	// Allocation is the currently applied soft-resource allocation.
	Allocation model.Allocation `json:"allocation"`
	// Throughput and response times are whole-system figures.
	Throughput    float64 `json:"throughput"`
	MeanRTSeconds float64 `json:"meanRTSeconds"`
	P95RTSeconds  float64 `json:"p95RTSeconds"`
}

// ActionType classifies a controller decision.
type ActionType int

// Decision kinds.
const (
	ActionScaleOut ActionType = iota + 1
	ActionScaleIn
	ActionSetAllocation
)

// String returns the action name.
func (a ActionType) String() string {
	switch a {
	case ActionScaleOut:
		return "scale-out"
	case ActionScaleIn:
		return "scale-in"
	case ActionSetAllocation:
		return "set-allocation"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Action is one controller decision.
type Action struct {
	Type ActionType `json:"type"`
	// Tier is the target tier for scaling actions.
	Tier string `json:"tier,omitempty"`
	// Allocation is the target soft allocation for ActionSetAllocation.
	Allocation model.Allocation `json:"allocation,omitempty"`
	// Code is the machine-readable reason classification (see audit.go).
	Code ReasonCode `json:"code,omitempty"`
	// Reason is a human-readable justification, recorded in the decision
	// log.
	Reason string `json:"reason"`
}

// Controller is a scaling policy.
type Controller interface {
	// Name identifies the policy in logs and reports.
	Name() string
	// Evaluate inspects one control period and returns the actions to take.
	Evaluate(view SystemView) []Action
}

// DefaultPolicy returns policy.Default().Scaling, the paper's §V-B
// VM-level rules. The benchmark module's controller replay builds its DCM
// from it.
func DefaultPolicy() policy.ScalingRules { return policy.Default().Scaling }

// thresholdRule is the shared VM-level scaling rule ("resource-usage
// driven", §IV): the threshold policy of policy.ScalingRules ("quick
// start, slow turn off") with crash re-provisioning and blackout holds.
// Both EC2AutoScale and DCM use it verbatim. It carries the consecutive-low
// counters between periods and, when predictive, one Holt smoother per
// scalable tier.
type thresholdRule struct {
	rules  policy.ScalingRules
	lowRun lowRuns
	// forecast holds the Holt smoothers of predictive scale-out (see
	// predict.go); nil means reactive.
	forecast map[string]*holt
}

func newThresholdRule(rules policy.ScalingRules, predictive bool) (*thresholdRule, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	r := &thresholdRule{rules: rules, lowRun: lowRuns{}}
	if predictive {
		r.forecast = make(map[string]*holt)
	}
	return r, nil
}

// evaluate returns the period's VM-level scaling actions, plus a Hold for
// every tier it explicitly decided to leave alone, in tier order. The
// holds change nothing about the decisions; they exist so the audit log
// can explain inaction.
func (r *thresholdRule) evaluate(view SystemView) ([]Action, []Hold) {
	var actions []Action
	var holds []Hold
	for _, tierName := range r.rules.ScalableTiers {
		ts, seen := view.Tiers[tierName]
		if !seen {
			holds = append(holds, Hold{Tier: tierName, Code: CodeTierUnseen})
			continue
		}
		cpu := r.cpu(tierName, ts)
		// Dead capacity first: the hypervisor census is authoritative even
		// when monitoring is dark, and a crashed VM must be replaced now —
		// waiting for the survivors' CPU to climb costs a full control
		// period of degraded service per crash.
		if ts.Crashed > 0 {
			r.lowRun[tierName] = 0
			n := min(ts.Crashed, r.rules.MaxServers-ts.Live)
			for i := 0; i < n; i++ {
				actions = append(actions, Action{
					Type: ActionScaleOut,
					Tier: tierName,
					Code: CodeCrashReprovision,
					Reason: fmt.Sprintf("re-provision %d crashed VM(s) (census: %d serving)",
						ts.Crashed, ts.Ready),
				})
			}
			if n < ts.Crashed {
				holds = append(holds, Hold{Tier: tierName, Code: CodeMaxServersClamp,
					Detail: fmt.Sprintf("%d of %d replacements dropped: %d live at max %d",
						ts.Crashed-n, ts.Crashed, ts.Live, r.rules.MaxServers)})
			}
			continue
		}
		// A blackout period carries no usable utilization signal: hold the
		// current topology rather than treat "no samples" as "0% CPU" and
		// start a spurious scale-in countdown on stale data.
		if ts.NoData {
			holds = append(holds, Hold{Tier: tierName, Code: CodeNoDataHold,
				Detail: "no monitoring samples this period"})
			continue
		}
		switch {
		case cpu > r.rules.UpperCPU:
			r.lowRun[tierName] = 0
			// "Quick start": trigger on a single hot period — but never
			// stack launches while one VM is already provisioning.
			if ts.Live > ts.Ready {
				holds = append(holds, Hold{Tier: tierName, Code: CodeLaunchInFlight,
					Detail: fmt.Sprintf("%d live > %d ready", ts.Live, ts.Ready)})
				continue
			}
			if ts.Live >= r.rules.MaxServers {
				holds = append(holds, Hold{Tier: tierName, Code: CodeAtMaxServers,
					Detail: fmt.Sprintf("cpu %.0f%% high with %d live at max %d",
						cpu*100, ts.Live, r.rules.MaxServers)})
				continue
			}
			actions = append(actions, Action{
				Type: ActionScaleOut,
				Tier: tierName,
				Code: CodeCPUHigh,
				Reason: fmt.Sprintf("cpu %.0f%% > %.0f%% upper bound",
					cpu*100, r.rules.UpperCPU*100),
			})
		case cpu < r.rules.LowerCPU:
			// "Slow turn off": require consecutive quiet periods, and
			// never remove a VM while another change is in flight.
			if hold, wait := r.lowRun.quiet(tierName, ts, r.rules.LowerConsecutive); wait {
				holds = append(holds, hold)
				continue
			}
			if ts.Ready <= r.rules.MinServers {
				holds = append(holds, Hold{Tier: tierName, Code: CodeAtMinServers,
					Detail: fmt.Sprintf("%d ready at min %d", ts.Ready, r.rules.MinServers)})
				continue
			}
			actions = append(actions, Action{
				Type: ActionScaleIn,
				Tier: tierName,
				Code: CodeCPULowSustained,
				Reason: fmt.Sprintf("cpu < %.0f%% for %d consecutive periods",
					r.rules.LowerCPU*100, r.rules.LowerConsecutive),
			})
		default:
			r.lowRun[tierName] = 0
			holds = append(holds, Hold{Tier: tierName, Code: CodeSteady})
		}
	}
	return actions, holds
}

// lowRuns counts each tier's consecutive below-target periods: the "slow
// turn off" state both VM-level rules carry between periods.
type lowRuns map[string]int

// quiet advances a tier's countdown for one below-target period and
// reports whether scale-in must wait, with the hold that says why. A VM in
// flight resets the countdown; once need periods have passed it restarts
// and the caller may remove a VM.
func (l lowRuns) quiet(tierName string, ts TierStats, need int) (Hold, bool) {
	if ts.Live != ts.Ready {
		l[tierName] = 0
		return Hold{Tier: tierName, Code: CodeLaunchInFlight,
			Detail: fmt.Sprintf("%d live != %d ready", ts.Live, ts.Ready)}, true
	}
	l[tierName]++
	if l[tierName] < need {
		return Hold{Tier: tierName, Code: CodeAwaitingLow,
			Detail: fmt.Sprintf("quiet period %d of %d", l[tierName], need)}, true
	}
	l[tierName] = 0
	return Hold{}, false
}

// EC2AutoScale is the hardware-only baseline controller.
type EC2AutoScale struct {
	vm    *thresholdRule
	audit *AuditLog
}

var _ Controller = (*EC2AutoScale)(nil)

// NewEC2AutoScale builds the baseline controller.
func NewEC2AutoScale(rules policy.ScalingRules) (*EC2AutoScale, error) {
	vm, err := newThresholdRule(rules, false)
	if err != nil {
		return nil, err
	}
	return &EC2AutoScale{vm: vm}, nil
}

// NewPredictiveEC2AutoScale builds the baseline with Holt-forecast
// scale-out (see predict.go).
func NewPredictiveEC2AutoScale(rules policy.ScalingRules) (*EC2AutoScale, error) {
	vm, err := newThresholdRule(rules, true)
	if err != nil {
		return nil, err
	}
	return &EC2AutoScale{vm: vm}, nil
}

// Name implements Controller.
func (c *EC2AutoScale) Name() string { return "ec2-autoscale" }

// EnableAudit implements Audited.
func (c *EC2AutoScale) EnableAudit(log *AuditLog) { c.audit = log }

// Evaluate implements Controller: VM-level scaling only, soft resources
// are never touched.
func (c *EC2AutoScale) Evaluate(view SystemView) []Action {
	actions, holds := c.vm.evaluate(view)
	c.audit.add(Decision{
		At:         view.At,
		Controller: c.Name(),
		View:       view,
		Actions:    actions,
		Holds:      holds,
	})
	return actions
}

// DCMConfig parameterizes the DCM controller.
type DCMConfig struct {
	// Policy is the shared VM-level rule set.
	Policy policy.ScalingRules
	// TomcatModel and MySQLModel are the trained concurrency-aware models
	// (§III); DCM derives soft allocations from them.
	TomcatModel, MySQLModel model.Params
	// Allocation is the soft-resource planner's rule set: headroom, Apache
	// pool size, and the concurrency floors and caps. The zero value
	// selects policy.Default().Allocation.
	Allocation policy.AllocationRules
	// OnlineTraining enables §III-C's online estimation: every control
	// period the controller feeds the monitored (per-server concurrency,
	// per-server throughput) points into rolling trainers and, once the
	// operating history spans enough of the curve, replaces the static
	// models with the freshly regressed ones. The static models remain
	// the fallback until then — and the safety net if the online fit ever
	// degenerates.
	OnlineTraining bool
	// Predictive switches the VM level to Holt-forecast scale-out (see
	// predict.go): the §VI extension that hides the setup delay behind a
	// burst's ramp.
	Predictive bool
}

// onlineRefitPeriods is how many control periods pass between online
// refits.
const onlineRefitPeriods = 4

// DCM is the paper's two-level controller.
type DCM struct {
	vm    *thresholdRule
	cfg   DCMConfig
	audit *AuditLog

	appTrainers, dbTrainers map[epoch]*model.OnlineTrainer
	periods                 int
	onlineTomcat            model.Params
	onlineMySQL             model.Params
	haveOnlineTomcat        bool
	haveOnlineMySQL         bool
}

// epoch identifies one system configuration. Operating points from
// different configurations lie on different composite curves (a request's
// residence in a tier depends on the other tiers' sizes and allocations),
// so the online regression must never mix them.
type epoch struct {
	appReady, dbReady  int
	appThreads, dbConn int
}

var _ Controller = (*DCM)(nil)

// NewDCM builds the DCM controller.
func NewDCM(cfg DCMConfig) (*DCM, error) {
	vm, err := newThresholdRule(cfg.Policy, cfg.Predictive)
	if err != nil {
		return nil, err
	}
	if cfg.Allocation == (policy.AllocationRules{}) {
		cfg.Allocation = policy.Default().Allocation
	}
	if err := cfg.Allocation.Validate(); err != nil {
		return nil, err
	}
	if _, ok := cfg.TomcatModel.OptimalConcurrency(); !ok {
		return nil, fmt.Errorf("controller: tomcat model: %w", model.ErrNoOptimum)
	}
	if _, ok := cfg.MySQLModel.OptimalConcurrency(); !ok {
		return nil, fmt.Errorf("controller: mysql model: %w", model.ErrNoOptimum)
	}
	c := &DCM{vm: vm, cfg: cfg}
	if cfg.OnlineTraining {
		c.appTrainers = make(map[epoch]*model.OnlineTrainer)
		c.dbTrainers = make(map[epoch]*model.OnlineTrainer)
	}
	return c, nil
}

// Name implements Controller.
func (c *DCM) Name() string { return "dcm" }

// EnableAudit implements Audited.
func (c *DCM) EnableAudit(log *AuditLog) { c.audit = log }

// Evaluate implements Controller: the VM-level decisions of the baseline,
// plus a soft-resource reallocation whenever the model-derived optimum for
// the *serving* topology differs from the applied allocation. Because the
// check runs every control period against ready-server counts, the
// APP-agent naturally fires right after a VM-level change completes — the
// ordering §IV prescribes — and also repairs any drift.
func (c *DCM) Evaluate(view SystemView) []Action {
	actions, holds := c.vm.evaluate(view)
	if c.cfg.OnlineTraining {
		c.observeAndRefit(view)
	}

	var planned *model.Allocation
	var plannedDiag *model.PlanDiag
	target, diag, err := c.desiredAllocation(view)
	if err != nil {
		// Topology not visible yet (e.g. before the first sample lands).
		holds = append(holds, Hold{Code: CodeTopologyUnknown, Detail: err.Error()})
	} else {
		alloc := target
		planned = &alloc
		d := diag
		plannedDiag = &d
		rules := c.cfg.Allocation
		if diag.AppClamped || diag.DBClamped {
			floorDesc := fmt.Sprintf("floor %d", rules.AppThreadsFloor)
			if rules.AppThreadsFloor != rules.DBConnsFloor {
				floorDesc = fmt.Sprintf("floors app=%d db=%d",
					rules.AppThreadsFloor, rules.DBConnsFloor)
			}
			holds = append(holds, Hold{Code: CodeConcurrencyClamp,
				Detail: fmt.Sprintf("planner raw app=%d db=%d clamped to %s",
					diag.RawAppThreads, diag.RawDBConnsPerApp, floorDesc)})
		}
		if diag.AppCapped || diag.DBCapped {
			holds = append(holds, Hold{Code: CodeConcurrencyClamp,
				Detail: fmt.Sprintf("planner raw app=%d db=%d capped to ceiling app<=%d db<=%d",
					diag.RawAppThreads, diag.RawDBConnsPerApp,
					rules.AppThreadsCap, rules.DBConnsCap)})
		}
		if target != view.Allocation {
			actions = append(actions, Action{
				Type:       ActionSetAllocation,
				Allocation: target,
				Code:       CodeRealloc,
				Reason: fmt.Sprintf("re-optimize soft resources for %d/%d/%d serving servers",
					readyOf(view, ntier.TierWeb), readyOf(view, ntier.TierApp), readyOf(view, ntier.TierDB)),
			})
		} else {
			holds = append(holds, Hold{Code: CodeAllocationOptimal,
				Detail: fmt.Sprintf("allocation %s already optimal", target)})
		}
	}
	if c.audit != nil {
		tomcat, mysql := c.Models()
		c.audit.add(Decision{
			At:          view.At,
			Controller:  c.Name(),
			View:        view,
			Actions:     actions,
			Holds:       holds,
			TomcatModel: &tomcat,
			MySQLModel:  &mysql,
			Planned:     planned,
			Diag:        plannedDiag,
		})
	}
	return actions
}

// observeAndRefit implements §III-C's online estimation: per-server
// (concurrency, throughput) points flow into rolling trainers; every
// onlineRefitPeriods periods the models are regressed afresh. A refit only
// replaces the working model when its optimum lies inside the observed
// range and the fit quality is reasonable (model.Train's own guards plus
// an R² floor).
func (c *DCM) observeAndRefit(view SystemView) {
	// Saturated operating points are excluded: once a server's concurrency
	// is pinned at its pool limit, throughput is set by downstream state
	// and queue dynamics rather than by the server's own law, so the
	// (n, X) pair moves off the curve.
	appLimit := float64(view.Allocation.AppThreadsPerServer)
	appTS := view.Tiers[ntier.TierApp]
	dbTS := view.Tiers[ntier.TierDB]
	dbLimit := 0.0
	if appTS.Ready > 0 && dbTS.Ready > 0 {
		dbLimit = float64(view.Allocation.DBConnsPerAppServer*appTS.Ready) / float64(dbTS.Ready)
	}
	key := epoch{
		appReady:   appTS.Ready,
		dbReady:    dbTS.Ready,
		appThreads: view.Allocation.AppThreadsPerServer,
		dbConn:     view.Allocation.DBConnsPerAppServer,
	}
	appTrainer := c.trainerFor(c.appTrainers, key)
	dbTrainer := c.trainerFor(c.dbTrainers, key)

	feed := func(trainer *model.OnlineTrainer, ts TierStats, limit float64) {
		if ts.NoData || ts.Smoothed {
			// A blackout period has no operating points; the zero
			// aggregates are not observations. Smoothed periods carry
			// held-over aggregates from before the blackout — good enough
			// to steer on, but training on them would duplicate stale
			// points into the fit.
			return
		}
		if len(ts.Points) > 0 {
			// Fine-grained per-VM per-second points: the preferred data.
			for _, pt := range ts.Points {
				if limit <= 0 || pt.Concurrency < 0.85*limit {
					trainer.Observe(pt.Concurrency, pt.Throughput)
				}
			}
			return
		}
		// Aggregate fallback (e.g. a deployment exporting only period
		// means): usable, but skip transitional periods entirely.
		if ts.Ready > 0 && ts.Live == ts.Ready &&
			(limit <= 0 || ts.MeanActive < 0.85*limit) {
			trainer.Observe(ts.MeanActive, ts.Throughput/float64(ts.Ready))
		}
	}
	feed(appTrainer, appTS, appLimit)
	feed(dbTrainer, dbTS, dbLimit)
	c.periods++
	if c.periods%onlineRefitPeriods != 0 {
		return
	}
	const minR2 = 0.9
	if res, ok := appTrainer.TryFit(); ok && res.RSquared >= minR2 {
		c.onlineTomcat = res.Params
		c.haveOnlineTomcat = true
	}
	if res, ok := dbTrainer.TryFit(); ok && res.RSquared >= minR2 {
		c.onlineMySQL = res.Params
		c.haveOnlineMySQL = true
	}
}

// trainerFor returns (creating if needed) the trainer of one configuration
// epoch.
func (c *DCM) trainerFor(m map[epoch]*model.OnlineTrainer, key epoch) *model.OnlineTrainer {
	t, ok := m[key]
	if !ok {
		t = model.NewOnlineTrainer(model.TrainOptions{Servers: 1}, model.OnlineConfig{})
		m[key] = t
	}
	return t
}

// Models returns the models the planner currently uses (online fits once
// available, the configured ones otherwise).
func (c *DCM) Models() (tomcat, mysql model.Params) {
	tomcat, mysql = c.cfg.TomcatModel, c.cfg.MySQLModel
	if c.haveOnlineTomcat {
		tomcat = c.onlineTomcat
	}
	if c.haveOnlineMySQL {
		mysql = c.onlineMySQL
	}
	return tomcat, mysql
}

// desiredAllocation runs the concurrency-aware planner for the current
// serving topology.
func (c *DCM) desiredAllocation(view SystemView) (model.Allocation, model.PlanDiag, error) {
	web := readyOf(view, ntier.TierWeb)
	if web == 0 {
		web = 1 // the web tier is unmanaged; assume its fixed single server
	}
	app := readyOf(view, ntier.TierApp)
	db := readyOf(view, ntier.TierDB)
	if app == 0 || db == 0 {
		return model.Allocation{}, model.PlanDiag{}, errors.New("controller: tier counts unavailable")
	}
	tomcat, mysql := c.Models()
	return model.PlanAllocation(model.AllocationInput{
		Tomcat:     tomcat,
		MySQL:      mysql,
		WebServers: web,
		AppServers: app,
		DBServers:  db,
	}, c.cfg.Allocation)
}

func readyOf(view SystemView, tier string) int {
	return view.Tiers[tier].Ready
}
