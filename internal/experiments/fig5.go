package experiments

import (
	"fmt"
	"time"

	"dcm/internal/bus"
	"dcm/internal/chaos"
	"dcm/internal/cloud"
	"dcm/internal/controller"
	"dcm/internal/core"
	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/policy"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

// ControllerKind selects the scaling policy of a scenario.
type ControllerKind string

// Scenario controllers.
const (
	// ControllerDCM is the paper's two-level controller.
	ControllerDCM ControllerKind = "dcm"
	// ControllerEC2 is the hardware-only baseline.
	ControllerEC2 ControllerKind = "ec2-autoscale"
	// ControllerDCMSoftOnly is the A1 ablation: the APP-agent alone, with
	// VM-level scaling disabled (MaxServers = 1).
	ControllerDCMSoftOnly ControllerKind = "dcm-soft-only"
	// ControllerNone runs with no controller actions at all (static
	// baseline).
	ControllerNone ControllerKind = "none"
	// ControllerDCMPredictive is DCM with Holt-forecast scale-out (the §VI
	// "predictive approaches" extension).
	ControllerDCMPredictive ControllerKind = "dcm-predictive"
	// ControllerEC2Predictive is the hardware-only baseline with the same
	// forecaster.
	ControllerEC2Predictive ControllerKind = "ec2-predictive"
	// ControllerTargetTracking is the modern EC2 target-tracking policy —
	// a stronger hardware-only baseline that still never touches soft
	// resources.
	ControllerTargetTracking ControllerKind = "target-tracking"
)

// ScenarioConfig parameterizes a Fig. 5-style run.
type ScenarioConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Kind selects the controller.
	Kind ControllerKind
	// Trace is the user-population trace; nil selects the synthetic
	// "large variation" trace (§V-B).
	Trace *trace.Trace
	// ThinkTime is the client think time (paper: 3 s mean).
	ThinkTime time.Duration
	// ControlPeriod and PrepDelay default to the paper's 15 s each.
	ControlPeriod, PrepDelay time.Duration
	// Rules is the declarative policy the whole controller configuration
	// comes from: thresholds and server bounds, the planner's
	// headroom/web-threads/clamps, the target-tracking setpoint, and (on
	// resilience runs) the retry-knob overrides. nil selects
	// policy.Default().
	Rules *policy.Rules
	// TomcatModel and MySQLModel are the trained models for DCM; zero
	// values select TrainedModels().
	TomcatModel, MySQLModel model.Params
	// OnlineTraining enables §III-C's online re-estimation inside the DCM
	// controller (see controller.DCMConfig.OnlineTraining).
	OnlineTraining bool
	// InitialAllocation is #W_T/#A_T/#A_C at the start (paper Fig. 5:
	// 1000/200/40).
	InitialAllocation model.Allocation
	// Tail extends the run past the trace end (default 30 s).
	Tail time.Duration
	// NoiseSigma adds service-time noise (default 0: deterministic).
	NoiseSigma float64
	// ServletMix serves the heterogeneous RUBBoS request classes
	// (ntier.DefaultServlets) instead of the uniform calibration class.
	ServletMix bool
	// Bursty, when non-nil, replaces the trace-driven workload with the
	// Markov-modulated burstiness-injection model of Mi et al. ([23]);
	// Horizon then bounds the run (default 600 s).
	Bursty  *workload.BurstyConfig
	Horizon time.Duration
	// Chaos, when non-nil, installs the fault schedule on the run and
	// attaches a recovery report to the result. Faults draw from the
	// scenario seed's "chaos" split, so the same seed replays the same
	// failure trace.
	Chaos *chaos.Schedule
	// CaptureTrace attaches a request tracer to the application: every
	// request records one span per tier hop, and the result carries the
	// per-tier latency breakdown plus the raw event log (RequestTracer).
	// Tracing never perturbs the simulation; the tracer retains at most
	// trace.DefaultEventLimit events.
	CaptureTrace bool
	// Audit attaches a decision audit log to the controller (when it
	// implements controller.Audited): every control period records its
	// inputs, actions and holds with machine-readable reason codes.
	Audit bool
	// Resilience, when non-nil, enables the data-plane resilience layer:
	// per-request deadlines, client retries (fed from the seed's "retry"
	// rng split), circuit breakers and admission control, per the config.
	// nil leaves the run byte-identical to a build without the layer.
	Resilience *resilience.Config
	// AppServers overrides the initial Tomcat-tier server count (0 keeps
	// ntier.DefaultConfig's single server). The retry-storm experiment
	// starts with two so one can be degraded while the other stays healthy.
	AppServers int
	// Invariants attaches the runtime invariant checker to the run: the
	// structural laws (request conservation, pool accounting, event-order,
	// breaker transitions) are swept once per simulated second and at the
	// end of the run, and any violations land on the result. Checking is
	// read-only — an Invariants run is byte-identical to a plain one.
	Invariants bool
}

// ScenarioResult holds the per-second series Fig. 5 plots plus the
// decision and scaling logs.
type ScenarioResult struct {
	Kind ControllerKind `json:"kind"`
	// Seconds is the time axis; all series are aligned to it.
	Seconds []float64 `json:"seconds"`
	// Users is the trace's population.
	Users []int `json:"users"`
	// Throughput, MeanRT and P95RT are per-second system series
	// (Fig. 5(a)(b)).
	Throughput []float64 `json:"throughput"`
	MeanRTSec  []float64 `json:"meanRTSec"`
	P95RTSec   []float64 `json:"p95RTSec"`
	// Errors is failed requests per second (non-zero under fault
	// injection).
	Errors []float64 `json:"errors,omitempty"`
	// AppResSec and DBResSec attribute latency to tiers per second: app
	// thread occupancy per request and per-query DB time.
	AppResSec []float64 `json:"appResSec"`
	DBResSec  []float64 `json:"dbResSec"`
	// TierCounts and TierCPU are per-second per-tier series
	// (Fig. 5(c)–(f)). Counts include provisioning VMs.
	TierCounts map[string][]int     `json:"tierCounts"`
	TierCPU    map[string][]float64 `json:"tierCPU"`
	// Actions is the controller's dispatched-action log; VMEvents is the
	// hypervisor's audit log (the scaling marks on the figures).
	Actions  []core.ActionRecord `json:"actions"`
	VMEvents []cloud.Event       `json:"vmEvents"`
	// TotalCompleted and TotalErrors are lifetime request counts.
	TotalCompleted uint64 `json:"totalCompleted"`
	TotalErrors    uint64 `json:"totalErrors"`
	// FinalAllocation is the soft allocation at the end of the run.
	FinalAllocation model.Allocation `json:"finalAllocation"`
	// Chaos is the fault-injection recovery report (nil without a
	// schedule).
	Chaos *chaos.Report `json:"chaos,omitempty"`
	// TierLatency summarizes the always-on per-tier histograms (queue
	// depth, service time, conn-pool wait) over the run, in tier order.
	TierLatency []TierHistogramSummary `json:"tierLatency"`
	// LatencyBreakdown is the per-tier latency decomposition reconstructed
	// from the request trace (CaptureTrace runs only).
	LatencyBreakdown []trace.TierBreakdown `json:"latencyBreakdown,omitempty"`
	// Decisions is the controller's audit log (Audit runs with an
	// auditable controller only).
	Decisions []controller.Decision `json:"decisions,omitempty"`
	// Goodput, Retries and Dispositions are filled on resilience runs
	// only: completions within the SLA, client retry attempts, and the
	// full request-outcome taxonomy.
	Goodput      uint64                     `json:"goodput,omitempty"`
	Retries      uint64                     `json:"retries,omitempty"`
	Dispositions *metrics.DispositionCounts `json:"dispositions,omitempty"`
	// InvariantViolations lists the structural-law breaches detected by an
	// Invariants run. Absent on clean runs (and on runs without the
	// checker), so enabling the checker never changes the marshaled bytes
	// of a correct run.
	InvariantViolations []invariant.Violation `json:"invariantViolations,omitempty"`

	tracer *trace.RequestTracer
	audit  *controller.AuditLog
}

// RequestTracer returns the run's request tracer (nil unless CaptureTrace
// was set), for JSONL export of the raw event log.
func (r *ScenarioResult) RequestTracer() *trace.RequestTracer { return r.tracer }

// DecisionLog returns the run's audit log (nil unless Audit was set and
// the controller implements controller.Audited), for JSONL export and
// summary rendering.
func (r *ScenarioResult) DecisionLog() *controller.AuditLog { return r.audit }

// TierHistogramSummary condenses one tier's latency histograms.
type TierHistogramSummary struct {
	Tier string `json:"tier"`
	// ServiceCount/P50/P95 summarize per-burst service times (seconds).
	ServiceCount uint64  `json:"serviceCount"`
	ServiceP50   float64 `json:"serviceP50"`
	ServiceP95   float64 `json:"serviceP95"`
	// QueueDepthP95/Max summarize the thread-pool queue depth seen at
	// admission.
	QueueDepthP95 float64 `json:"queueDepthP95"`
	QueueDepthMax float64 `json:"queueDepthMax"`
	// PoolWaitCount/P95 summarize conn-pool acquisition waits (seconds;
	// app tier only).
	PoolWaitCount uint64  `json:"poolWaitCount,omitempty"`
	PoolWaitP95   float64 `json:"poolWaitP95,omitempty"`
}

// RunScenario executes one §V-B scenario.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Rules != nil {
		if err := cfg.Rules.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: scenario rules: %w", err)
		}
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.SynthesizeLargeVariation(cfg.Seed)
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 3 * time.Second
	}
	if cfg.Tail <= 0 {
		cfg.Tail = 30 * time.Second
	}
	if cfg.InitialAllocation == (model.Allocation{}) {
		cfg.InitialAllocation = model.Allocation{
			WebThreadsPerServer: 1000,
			AppThreadsPerServer: 200,
			DBConnsPerAppServer: 40,
		}
	}

	appCfg := ntier.DefaultConfig()
	appCfg.WebThreads = cfg.InitialAllocation.WebThreadsPerServer
	appCfg.AppThreads = cfg.InitialAllocation.AppThreadsPerServer
	appCfg.DBConnsPerApp = cfg.InitialAllocation.DBConnsPerAppServer
	appCfg.NoiseSigma = cfg.NoiseSigma
	if cfg.ServletMix {
		appCfg.Classes = ntier.DefaultServlets()
	}
	if cfg.AppServers > 0 {
		appCfg.AppServers = cfg.AppServers
	}
	var retry *resilience.RetryPolicy
	if cfg.Resilience != nil {
		appCfg.Resilience = *cfg.Resilience
		retry = &appCfg.Resilience.Retry
		// Retry-knob override: only on resilience runs, and on appCfg's
		// copy — the caller's config (often shared across a portfolio)
		// stays untouched.
		if cfg.Rules != nil && cfg.Rules.Retry.Override() {
			retry.MaxAttempts = cfg.Rules.Retry.MaxAttempts
			retry.BudgetRatio = cfg.Rules.Retry.BudgetRatio
			retry.BudgetBurst = float64(cfg.Rules.Retry.BudgetBurst)
			retry.Jitter = cfg.Rules.Retry.Jitter
		}
	}
	horizon := cfg.Trace.Duration() + cfg.Tail
	if cfg.Bursty != nil {
		horizon = cfg.Horizon
		if horizon <= 0 {
			horizon = 600 * time.Second
		}
	}
	res := &ScenarioResult{
		Kind:       cfg.Kind,
		TierCounts: map[string][]int{},
		TierCPU:    map[string][]float64{},
	}
	// The sampler below fires once per second for the whole horizon, so the
	// series lengths are known now — size the buffers once up front.
	expectSamples := int(horizon/time.Second) + 1
	for _, tierName := range ntier.Tiers() {
		res.TierCounts[tierName] = make([]int, 0, expectSamples)
	}

	var fw *core.Framework
	var loop *workload.ClosedLoop
	var col *seriesCollector
	r, err := assemble(runPlan{
		seed:  cfg.Seed,
		chain: &appCfg,
		chk:   checker(cfg.Invariants),
		wire: func(r *run) error {
			if cfg.CaptureTrace {
				res.tracer = trace.NewRequestTracer(0)
				r.app.SetRequestTracer(res.tracer)
			}
			ctrl, err := buildController(cfg)
			if err != nil {
				return err
			}
			if a, ok := ctrl.(controller.Audited); ok && cfg.Audit {
				res.audit = controller.NewAuditLog()
				a.EnableAudit(res.audit)
			}
			if fw, err = core.New(r.eng, r.app, ctrl, core.Config{
				ControlPeriod:   cfg.ControlPeriod,
				MonitorInterval: time.Second,
				PrepDelay:       cfg.PrepDelay,
			}); err != nil {
				return fmt.Errorf("framework: %w", err)
			}
			col = newSeriesCollector(fw.Bus(), res, expectSamples)
			if err := fw.Start(); err != nil {
				return fmt.Errorf("start: %w", err)
			}
			r.hv, r.fleet = fw.Hypervisor(), fw.Fleet()
			return nil
		},
		chaos: cfg.Chaos,
		retry: retry,
		load: func(r *run, src *rng.Rand) (workload.Generator, error) {
			if cfg.Bursty != nil {
				bl, err := workload.NewBurstyLoop(r.eng, src, r.app, *cfg.Bursty)
				if err != nil {
					return nil, err
				}
				loop = bl.ClosedLoop
				loop.SetRetrier(r.ret)
				return bl, nil
			}
			wl, err := workload.NewTraceDriven(r.eng, src, r.app, cfg.Trace, cfg.ThinkTime, time.Second)
			if err != nil {
				return nil, err
			}
			loop = wl.Loop()
			loop.SetRetrier(r.ret)
			return wl, nil
		},
		// Per-second topology sampler (server counts incl. provisioning
		// VMs). The series collector's drain and the invariant sweep
		// piggyback on this existing tick so neither adds events of its
		// own — the event stream (and so the result bytes) is identical
		// with the checker on or off.
		sample: func(r *run) {
			for _, tierName := range ntier.Tiers() {
				count := r.app.MemberCount(tierName) + fw.VMAgent().Pending(tierName)
				res.TierCounts[tierName] = append(res.TierCounts[tierName], count)
			}
			col.drain()
			r.sweep()
		},
		horizon: horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario: %w", err)
	}
	fw.Stop()
	col.finish()
	res.Users = make([]int, len(res.Seconds))
	for i, s := range res.Seconds {
		if cfg.Bursty != nil {
			res.Users[i] = cfg.Bursty.Users
		} else {
			res.Users[i] = cfg.Trace.UsersAt(time.Duration(s * float64(time.Second)))
		}
	}
	res.Actions = fw.Actions()
	res.VMEvents = fw.Hypervisor().Events()
	res.TotalCompleted = r.app.TotalCompletions()
	res.TotalErrors = r.app.TotalErrors()
	res.FinalAllocation = ntier.Allocation(r.app)
	if cfg.Resilience != nil {
		res.Goodput = r.app.TotalGood()
		res.Retries = loop.TotalRetries()
		disp := r.app.Dispositions()
		res.Dispositions = &disp
	}
	res.TierLatency = tierLatencySummaries(r.app)
	if res.tracer != nil {
		res.LatencyBreakdown = res.tracer.Breakdown()
	}
	if res.audit != nil {
		res.Decisions = res.audit.Decisions()
	}
	res.InvariantViolations = r.violations
	if r.inj != nil {
		rep := chaos.Analyze(chaos.Input{
			Schedule:        *cfg.Chaos,
			Injections:      r.inj.Log(),
			Seconds:         res.Seconds,
			Throughput:      res.Throughput,
			MeanRTSec:       res.MeanRTSec,
			Errors:          res.Errors,
			ErroredRequests: res.TotalErrors,
		})
		res.Chaos = &rep
	}
	return res, nil
}

// tierLatencySummaries condenses the per-tier histograms accumulated on
// the application's current members (servers removed by scale-in take
// their share of the counts with them). A tier left with no members (its
// last VM crashed and was never replaced) summarizes to zeros.
func tierLatencySummaries(app *graph.App) []TierHistogramSummary {
	out := make([]TierHistogramSummary, 0, len(ntier.Tiers()))
	for _, tierName := range ntier.Tiers() {
		hs, err := app.NodeHistograms(tierName)
		if err != nil {
			continue
		}
		if hs.ServiceTime == nil {
			out = append(out, TierHistogramSummary{Tier: tierName})
			continue
		}
		s := TierHistogramSummary{
			Tier:          tierName,
			ServiceCount:  hs.ServiceTime.Count(),
			ServiceP50:    hs.ServiceTime.Quantile(0.5),
			ServiceP95:    hs.ServiceTime.Quantile(0.95),
			QueueDepthP95: hs.QueueDepth.Quantile(0.95),
			QueueDepthMax: hs.QueueDepth.Max(),
		}
		if hs.PoolWait != nil {
			s.PoolWaitCount = hs.PoolWait.Count()
			s.PoolWaitP95 = hs.PoolWait.Quantile(0.95)
		}
		out = append(out, s)
	}
	return out
}

// buildController constructs the scenario's policy.
func buildController(cfg ScenarioConfig) (controller.Controller, error) {
	rules := policy.Default()
	if cfg.Rules != nil {
		rules = *cfg.Rules
	}
	scaling := rules.Scaling
	tomcat, mysql := cfg.TomcatModel, cfg.MySQLModel
	if tomcat == (model.Params{}) || mysql == (model.Params{}) {
		tomcat, mysql = TrainedModels()
	}
	switch cfg.Kind {
	case ControllerEC2:
		return controller.NewEC2AutoScale(scaling)
	case ControllerEC2Predictive:
		return controller.NewPredictiveEC2AutoScale(scaling)
	case ControllerTargetTracking:
		return controller.NewTargetTracking(scaling, rules.Target)
	case ControllerDCM, ControllerDCMPredictive:
		return controller.NewDCM(controller.DCMConfig{
			Policy:         scaling,
			TomcatModel:    tomcat,
			MySQLModel:     mysql,
			Allocation:     rules.Allocation,
			OnlineTraining: cfg.OnlineTraining,
			Predictive:     cfg.Kind == ControllerDCMPredictive,
		})
	case ControllerDCMSoftOnly:
		scaling.MaxServers = 1
		scaling.MinServers = 1
		return controller.NewDCM(controller.DCMConfig{
			Policy:      scaling,
			TomcatModel: tomcat,
			MySQLModel:  mysql,
			Allocation:  rules.Allocation,
		})
	case ControllerNone:
		scaling.MaxServers = 1
		scaling.MinServers = 1
		return controller.NewEC2AutoScale(scaling)
	default:
		return nil, fmt.Errorf("unknown controller kind %q", cfg.Kind)
	}
}

// seriesCollector builds the per-second Fig. 5 series as one more
// consumer of the monitoring stream: it reads both monitor topics at the
// pace of the run, so the bus retains only the samples no consumer has
// read yet rather than the whole run.
type seriesCollector struct {
	res      *ScenarioResult
	sys, srv *bus.Consumer
	// counts is each tier's number of server samples per second; the
	// result's TierCPU holds their CPU sums until finish divides.
	counts map[string][]int
}

// newSeriesCollector registers the collector's consumers on b and sizes
// every series for the expected number of one-second samples.
func newSeriesCollector(b *bus.Bus, res *ScenarioResult, expect int) *seriesCollector {
	c := &seriesCollector{
		res:    res,
		sys:    b.NewConsumer(monitor.TopicSystemMetrics),
		srv:    b.NewConsumer(monitor.TopicServerMetrics),
		counts: make(map[string][]int, len(ntier.Tiers())),
	}
	res.Seconds = make([]float64, 0, expect)
	res.Throughput = make([]float64, 0, expect)
	res.MeanRTSec = make([]float64, 0, expect)
	res.P95RTSec = make([]float64, 0, expect)
	res.Errors = make([]float64, 0, expect)
	res.AppResSec = make([]float64, 0, expect)
	res.DBResSec = make([]float64, 0, expect)
	for _, tierName := range ntier.Tiers() {
		res.TierCPU[tierName] = make([]float64, 0, expect)
		c.counts[tierName] = make([]int, 0, expect)
	}
	return c
}

// drain reads every sample published since the previous drain, in
// message order.
func (c *seriesCollector) drain() {
	res := c.res
	for m, ok := c.sys.Next(); ok; m, ok = c.sys.Next() {
		s, isSample := m.Value.(monitor.SystemSample)
		if !isSample {
			continue
		}
		res.Seconds = append(res.Seconds, s.At.Seconds())
		res.Throughput = append(res.Throughput, s.Throughput)
		res.MeanRTSec = append(res.MeanRTSec, s.MeanRTSeconds)
		res.P95RTSec = append(res.P95RTSec, s.P95RTSeconds)
		res.Errors = append(res.Errors, float64(s.Errors))
		res.AppResSec = append(res.AppResSec, s.MeanAppResidence)
		res.DBResSec = append(res.DBResSec, s.MeanDBResidence)
	}
	for m, ok := c.srv.Next(); ok; m, ok = c.srv.Next() {
		s, isSample := m.Value.(monitor.ServerSample)
		sec := int(s.At.Seconds()) - 1
		cpu, counts := res.TierCPU[s.Tier], c.counts[s.Tier]
		if !isSample || cpu == nil || sec < 0 {
			continue
		}
		for len(cpu) <= sec {
			cpu, counts = append(cpu, 0), append(counts, 0)
		}
		cpu[sec] += s.CPUUtil
		counts[sec]++
		res.TierCPU[s.Tier], c.counts[s.Tier] = cpu, counts
	}
}

// finish drains what the run left unread and completes each tier's CPU
// series as the mean over its servers' samples in each second, aligned to
// the time axis.
func (c *seriesCollector) finish() {
	c.drain()
	res := c.res
	n := len(res.Seconds)
	for tierName, cpu := range res.TierCPU {
		counts := c.counts[tierName]
		if len(cpu) > n {
			cpu, counts = cpu[:n], counts[:n]
		}
		for len(cpu) < n {
			cpu, counts = append(cpu, 0), append(counts, 0)
		}
		for i, k := range counts {
			if k > 0 {
				cpu[i] /= float64(k)
			}
		}
		res.TierCPU[tierName] = cpu
	}
	// Trim the topology series to the same length.
	for tierName, s := range res.TierCounts {
		if len(s) > n {
			res.TierCounts[tierName] = s[:n]
		}
	}
}

// ScenarioSummary condenses a run for comparison.
type ScenarioSummary struct {
	Kind ControllerKind `json:"kind"`
	// MeanRT and MaxRT summarize the per-second mean response times.
	MeanRTSec float64 `json:"meanRTSec"`
	MaxRTSec  float64 `json:"maxRTSec"`
	// P95OfP95 is the 95th percentile of the per-second P95 series — the
	// tail behaviour users experience during bursts.
	P95OfP95Sec float64 `json:"p95OfP95Sec"`
	// SpikeSeconds counts seconds whose mean RT exceeds 1 s (the paper's
	// "large response time spike" criterion).
	SpikeSeconds int `json:"spikeSeconds"`
	// VMSeconds is the total VM time consumed across the scalable tiers
	// (the cost side of the paper's "high resource efficiency" goal).
	VMSeconds float64 `json:"vmSeconds"`
	// RequestsPerVMSecond is TotalCompleted / VMSeconds — the resource
	// efficiency figure of merit.
	RequestsPerVMSecond float64 `json:"requestsPerVMSecond"`
	// DegradedSeconds counts seconds whose mean RT exceeds 0.5 s.
	DegradedSeconds int `json:"degradedSeconds"`
	// TotalCompleted is the lifetime request count.
	TotalCompleted uint64 `json:"totalCompleted"`
	// MaxAppServers and MaxDBServers record the scaling envelope.
	MaxAppServers int `json:"maxAppServers"`
	MaxDBServers  int `json:"maxDBServers"`
}

// Summarize reduces a scenario result to its headline numbers.
func (r *ScenarioResult) Summarize() ScenarioSummary {
	s := ScenarioSummary{Kind: r.Kind, TotalCompleted: r.TotalCompleted}
	for _, rt := range r.MeanRTSec {
		if rt > 1.0 {
			s.SpikeSeconds++
		}
		if rt > 0.5 {
			s.DegradedSeconds++
		}
	}
	sum := metrics.Summarize(r.MeanRTSec)
	s.MeanRTSec = sum.Mean
	s.MaxRTSec = sum.Max
	s.P95OfP95Sec = metrics.Summarize(r.P95RTSec).P95
	// One sample per second, so the counts sum to VM-seconds.
	for _, c := range r.TierCounts[ntier.TierApp] {
		s.MaxAppServers = max(s.MaxAppServers, c)
		s.VMSeconds += float64(c)
	}
	for _, c := range r.TierCounts[ntier.TierDB] {
		s.MaxDBServers = max(s.MaxDBServers, c)
		s.VMSeconds += float64(c)
	}
	if s.VMSeconds > 0 {
		s.RequestsPerVMSecond = float64(r.TotalCompleted) / s.VMSeconds
	}
	return s
}

// RenderScenarioComparison renders the DCM-vs-baseline headline table
// (the quantitative content of Fig. 5).
func RenderScenarioComparison(results ...*ScenarioResult) string {
	tb := metrics.NewTable("controller", "mean RT (s)", "max RT (s)", "p95 RT (s)",
		"spikes >1s", "completed", "max app", "max db", "VM-hours", "req/VM-s")
	for _, r := range results {
		s := r.Summarize()
		tb.AddRow(string(s.Kind), fmtF(s.MeanRTSec, 3), fmtF(s.MaxRTSec, 3),
			fmtF(s.P95OfP95Sec, 3), fmt.Sprintf("%d", s.SpikeSeconds),
			fmt.Sprintf("%d", s.TotalCompleted),
			fmt.Sprintf("%d", s.MaxAppServers), fmt.Sprintf("%d", s.MaxDBServers),
			fmtF(s.VMSeconds/3600, 2), fmtF(s.RequestsPerVMSecond, 0))
	}
	return tb.String()
}

// RenderTierLatency renders the always-on per-tier histogram summaries:
// the textual latency-breakdown companion to the Fig. 5 series.
func RenderTierLatency(r *ScenarioResult) string {
	if len(r.TierLatency) == 0 {
		return "no tier latency data\n"
	}
	tb := metrics.NewTable("tier", "bursts", "svc p50 (ms)", "svc p95 (ms)",
		"queue p95", "queue max", "pool waits", "pool p95 (ms)")
	for _, s := range r.TierLatency {
		tb.AddRow(s.Tier,
			fmt.Sprintf("%d", s.ServiceCount),
			fmtF(s.ServiceP50*1e3, 2), fmtF(s.ServiceP95*1e3, 2),
			fmtF(s.QueueDepthP95, 1), fmtF(s.QueueDepthMax, 0),
			fmt.Sprintf("%d", s.PoolWaitCount), fmtF(s.PoolWaitP95*1e3, 2))
	}
	return tb.String()
}

// RenderScenarioSeries renders one run's per-second series (downsampled)
// as the textual analogue of Fig. 5's six panels.
func RenderScenarioSeries(r *ScenarioResult, every int) string {
	if every < 1 {
		every = 10
	}
	tb := metrics.NewTable("t(s)", "users", "X(req/s)", "meanRT(s)", "p95RT(s)",
		"app#", "appCPU", "db#", "dbCPU")
	for i := 0; i < len(r.Seconds); i += every {
		tb.AddRow(
			fmtF(r.Seconds[i], 0),
			fmt.Sprintf("%d", r.Users[i]),
			fmtF(r.Throughput[i], 0),
			fmtF(r.MeanRTSec[i], 3),
			fmtF(r.P95RTSec[i], 3),
			fmt.Sprintf("%d", r.TierCounts[ntier.TierApp][i]),
			fmtF(r.TierCPU[ntier.TierApp][i], 2),
			fmt.Sprintf("%d", r.TierCounts[ntier.TierDB][i]),
			fmtF(r.TierCPU[ntier.TierDB][i], 2),
		)
	}
	return tb.String()
}
