package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/lb"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/workload"
)

// The graph experiment drives an arbitrary service-graph topology — by
// default a 5-node fan-out microservice app — with the workload library's
// bursty open-loop arrivals, optional mid-run chaos (a replica crash and a
// later replacement), and an optional threads ticker that sets each armed
// node's thread pool to the Equation 7 optimum N_b of its configured law.
// The ticker is not the paper's DCM loop: it monitors nothing and fits
// nothing. The experiment demonstrates that every per-node construct the
// chain experiments calibrated (Eq. 5 laws, resilience, invariants)
// composes on a DAG.

// GraphConfig parameterizes the graph experiment. The zero value selects
// the built-in fanout5 topology under calibrated defaults. The app runs
// the "full" resilience preset minus its client retries: the open-loop
// generator takes no retrier and the graph never reads Resilience.Retry,
// so a failed request is never reissued.
type GraphConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Topology is a topology spec file (see topologies/); empty selects the
	// built-in 5-node fan-out app.
	Topology string
	// Rate is the base open-loop arrival rate in requests per second
	// (default 150). The run is bursty: a flash-crowd plateau of 4x the
	// base rate occupies the middle half of the horizon.
	Rate float64
	// Horizon bounds the run (default 120 s).
	Horizon time.Duration
	// Timeout is the per-request deadline and basic-class SLA (default 1 s).
	Timeout time.Duration
	// Chaos injects failures: the first non-entry node in declaration
	// order loses one replica at Horizon/3 (crash, in-flight work lost)
	// and gains a replacement at 2*Horizon/3.
	Chaos bool
	// Controllers arms a threads ticker on every node whose spec sets
	// Controller: every graphControlPeriod it sets the node's thread pool
	// to the Equation 7 optimum N_b of the node's configured law. It does
	// no monitoring and no model fitting.
	Controllers bool
	// Invariants attaches the runtime invariant checker (whole-graph and
	// per-node conservation, async ledger, pool accounting) and sweeps once
	// at the end.
	Invariants bool
}

func (c *GraphConfig) defaults() {
	if c.Rate <= 0 {
		c.Rate = 150
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
}

// graphControlPeriod is the threads ticker's period.
const graphControlPeriod = 5 * time.Second

// Fanout5Spec is the built-in 5-node fan-out microservice app: a gateway
// fans out to a search service (two parallel lookups) and a catalog
// service (which issues two pooled DB queries), and fires an async audit
// event per request. The laws reuse the calibrated chain shapes so the
// defaults saturate in reach of the default rates.
func Fanout5Spec() graph.Spec {
	web := model.Params{S0: 4e-4, Alpha: 5e-7, Beta: 1e-10, Gamma: 1}
	// The composite Tomcat-like law (interior optimum N_b ≈ 20) — the shape
	// §V-A's training run measures — so the armed nodes have a real
	// optimum to be set to.
	app := model.Params{S0: 4.64e-3, Alpha: 8.08e-4, Beta: 9.46e-6, Gamma: 1}
	db := model.Params{S0: 6.867e-4, Alpha: 4.814e-4, Beta: 1.576e-7, Gamma: 1}
	return graph.Spec{
		Name:  "fanout5",
		Entry: "gateway",
		Nodes: []graph.NodeSpec{
			{Name: "gateway", Model: web, Threads: 1000},
			{Name: "search", Model: app, Threads: 80, Controller: true},
			{Name: "catalog", Model: app, Threads: 100, Controller: true},
			{Name: "db", Model: db, Threads: 2000,
				ThrashKnee: 40, ThrashCoef: 1.3e-5, BetaOnConfigured: true},
			{Name: "audit", Model: web, Threads: 50},
		},
		Edges: []graph.EdgeSpec{
			{From: "gateway", To: "search", Kind: graph.EdgeParallel, Visits: 2},
			{From: "gateway", To: "catalog", Visits: 1},
			{From: "gateway", To: "audit", Kind: graph.EdgeAsync, Visits: 1},
			{From: "search", To: "db", Visits: 1, PoolSize: 40},
			{From: "catalog", To: "db", Visits: 2, PoolSize: 80},
		},
	}
}

// GraphNodeRow is one node's end-of-run summary.
type GraphNodeRow struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Members int    `json:"members"`
	Threads int    `json:"threads"`
	// Started/InFlight/Dispositions are the node's visit ledger.
	Started      uint64                    `json:"started"`
	InFlight     int                       `json:"inFlight"`
	Dispositions metrics.DispositionCounts `json:"dispositions"`
	// MeanResidence is the node's mean per-visit residence over the run.
	MeanResidence float64 `json:"meanResidence"`
	// CacheHits/CacheMisses are set for cache nodes only.
	CacheHits   uint64 `json:"cacheHits,omitempty"`
	CacheMisses uint64 `json:"cacheMisses,omitempty"`
}

// GraphResult reports one graph-experiment run.
type GraphResult struct {
	Topology string        `json:"topology"`
	Entry    string        `json:"entry"`
	Rate     float64       `json:"rate"`
	PeakRate float64       `json:"peakRate"`
	Horizon  time.Duration `json:"horizon"`
	// Scheduled counts accepted (injected) arrivals.
	Scheduled    uint64                    `json:"scheduled"`
	Goodput      uint64                    `json:"goodput"`
	Completed    uint64                    `json:"completed"`
	Errors       uint64                    `json:"errors"`
	Dispositions metrics.DispositionCounts `json:"dispositions"`
	// Nodes is the per-node breakdown in declaration order.
	Nodes []GraphNodeRow `json:"nodes"`
	// Async is the fire-and-forget ledger (zero without async edges).
	AsyncSpawned  uint64                    `json:"asyncSpawned,omitempty"`
	AsyncDone     metrics.DispositionCounts `json:"asyncDone,omitempty"`
	AsyncInFlight int                       `json:"asyncInFlight,omitempty"`
	// Chaos log entries ("t=40s fail catalog-1"), empty without chaos.
	ChaosLog []string `json:"chaosLog,omitempty"`
	// ControllerTargets maps armed nodes to the threads the ticker set.
	ControllerTargets map[string]int `json:"controllerTargets,omitempty"`
	Events            uint64         `json:"events"`
	Wall              time.Duration  `json:"wall"`

	InvariantViolations []invariant.Violation `json:"invariantViolations,omitempty"`
}

// RunGraph runs the service-graph experiment.
func RunGraph(cfg GraphConfig) (GraphResult, error) {
	cfg.defaults()

	spec := Fanout5Spec()
	if cfg.Topology != "" {
		var err error
		if spec, err = graph.LoadSpec(cfg.Topology); err != nil {
			return GraphResult{}, fmt.Errorf("experiments: graph topology: %w", err)
		}
	}

	res, err := resilience.Preset("full", cfg.Timeout)
	if err != nil {
		return GraphResult{}, fmt.Errorf("experiments: graph resilience: %w", err)
	}
	peak := 4 * cfg.Rate
	wspec := workload.WorkloadSpec{
		Name: "graph-bursty",
		Kind: workload.KindOpen,
		Arrivals: &workload.RateSpec{
			Curve:       workload.CurveFlashCrowd,
			Rate:        cfg.Rate,
			PeakRate:    peak,
			AtSeconds:   (cfg.Horizon / 4).Seconds(),
			RampSeconds: 10,
			HoldSeconds: (cfg.Horizon / 2).Seconds(),
		},
		Classes: []workload.ClassSpec{
			{Name: "premium", Weight: 0.2, Priority: 1, SLOSeconds: (cfg.Timeout / 2).Seconds()},
			{Name: "basic", Weight: 0.8},
		},
	}

	var chaosLog []string
	targets := make(map[string]int)
	r, err := assemble(runPlan{
		seed: cfg.Seed,
		graph: &graph.Config{
			Spec:       spec,
			Policy:     lb.LeastConnections,
			Resilience: *res,
			Classes:    appClasses(wspec),
		},
		chk: checker(cfg.Invariants),
		wire: func(r *run) error {
			if cfg.Chaos {
				scheduleGraphChaos(r, spec.Entry, cfg.Horizon, &chaosLog)
			}
			// The threads ticker: each period, set every armed node's
			// thread pool to the N_b of its configured law.
			if cfg.Controllers {
				for _, ns := range spec.Nodes {
					if !ns.Controller {
						continue
					}
					name, m := ns.Name, ns.Model
					_ = r.eng.Ticker(graphControlPeriod, func() {
						nb, ok := m.OptimalConcurrencyInt()
						if !ok || nb < 1 {
							return
						}
						targets[name] = nb
						_ = r.app.SetNodeThreads(name, nb)
					})
				}
			}
			return nil
		},
		load: func(r *run, src *rng.Rand) (workload.Generator, error) {
			return wspec.Build(r.eng, src, r.app)
		},
		horizon: cfg.Horizon,
	})
	if err != nil {
		return GraphResult{}, fmt.Errorf("experiments: graph: %w", err)
	}
	app := r.app
	ol := r.gen.(*workload.OpenLoopGen)

	out := GraphResult{
		Topology:            spec.Name,
		Entry:               spec.Entry,
		Rate:                cfg.Rate,
		PeakRate:            peak,
		Horizon:             cfg.Horizon,
		Scheduled:           ol.Scheduled(),
		Goodput:             app.TotalGood(),
		Completed:           app.TotalCompletions(),
		Errors:              app.TotalErrors(),
		Dispositions:        app.Dispositions(),
		ChaosLog:            chaosLog,
		ControllerTargets:   targets,
		Events:              r.eng.Processed(),
		Wall:                r.wall,
		InvariantViolations: r.violations,
	}
	st := app.TakeStats()
	ledger := app.NodeVisits()
	for i, name := range app.NodeNames() {
		row := GraphNodeRow{
			Name:          name,
			Kind:          spec.Nodes[i].Kind,
			Members:       app.MemberCount(name),
			MeanResidence: st.NodeResidence[name],
		}
		if row.Kind == "" {
			row.Kind = graph.KindService
		}
		if th, err := app.NodeThreads(name); err == nil {
			row.Threads = th
		}
		if lv, ok := ledger[name]; ok {
			row.Started = lv.Started
			row.InFlight = lv.InFlight
			row.Dispositions = lv.Dispositions
		}
		if row.Kind == graph.KindCache {
			row.CacheHits, row.CacheMisses, _ = app.CacheStats(name)
		}
		out.Nodes = append(out.Nodes, row)
	}
	out.AsyncSpawned, out.AsyncDone, out.AsyncInFlight = app.AsyncLedger()
	return out, nil
}

// scheduleGraphChaos crashes one replica of the first non-entry node in
// declaration order at horizon/3 and adds a replacement at 2*horizon/3:
// the graph must reroute, absorb the lost in-flight work, and rebalance
// when capacity returns. Each injection is appended to log.
func scheduleGraphChaos(r *run, entry string, horizon time.Duration, log *[]string) {
	victim := ""
	for _, name := range r.app.NodeNames() {
		if name != entry {
			victim = name
			break
		}
	}
	if victim == "" {
		return
	}
	r.eng.Schedule(horizon/3, func() {
		ms := r.app.Members(victim)
		if len(ms) == 0 {
			return
		}
		name := ms[len(ms)-1].Name()
		if err := r.app.FailMember(victim, name); err == nil {
			*log = append(*log, fmt.Sprintf("t=%v fail %s", r.eng.Now().Round(time.Second), name))
		}
	})
	r.eng.Schedule(2*horizon/3, func() {
		if m, err := r.app.AddMember(victim, ""); err == nil {
			*log = append(*log, fmt.Sprintf("t=%v add %s", r.eng.Now().Round(time.Second), m.Name()))
		}
	})
}

// RenderGraph renders the run summary plus the per-node ledger table.
// Deterministic for a fixed seed (wall time is reported via JSON only), so
// cmd/report can golden-test the section.
func RenderGraph(r GraphResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  topology   %s (entry %s)\n", r.Topology, r.Entry)
	fmt.Fprintf(&sb, "  arrivals   bursty %.0f -> %.0f req/s over %v\n", r.Rate, r.PeakRate, r.Horizon)
	fmt.Fprintf(&sb, "  scheduled  %d arrivals\n", r.Scheduled)
	fmt.Fprintf(&sb, "  outcome    %d good / %d completed / %d errors\n",
		r.Goodput, r.Completed, r.Errors)
	d := r.Dispositions
	fmt.Fprintf(&sb, "  taxonomy   ok %d | timeout %d | rejected %d | shed %d | brk-open %d | errored %d\n",
		d.OK, d.TimedOut, d.Rejected, d.Shed, d.BreakerOpen, d.Errored)
	if r.AsyncSpawned > 0 {
		fmt.Fprintf(&sb, "  async      %d spawned, %d done ok, %d in flight\n",
			r.AsyncSpawned, r.AsyncDone.OK, r.AsyncInFlight)
	}
	for _, line := range r.ChaosLog {
		fmt.Fprintf(&sb, "  chaos      %s\n", line)
	}
	if len(r.ControllerTargets) > 0 {
		names := make([]string, 0, len(r.ControllerTargets))
		for name := range r.ControllerTargets {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s->%d", name, r.ControllerTargets[name])
		}
		fmt.Fprintf(&sb, "  dcm        steered threads: %s\n", strings.Join(parts, ", "))
	}
	if len(r.InvariantViolations) > 0 {
		fmt.Fprintf(&sb, "  INVARIANT VIOLATIONS: %d\n", len(r.InvariantViolations))
	}
	sb.WriteString("\n")
	tb := metrics.NewTable("node", "kind", "members", "threads", "visits",
		"ok", "timeout", "errors", "meanRes")
	for _, n := range r.Nodes {
		tb.AddRow(n.Name, n.Kind,
			fmt.Sprintf("%d", n.Members),
			fmt.Sprintf("%d", n.Threads),
			fmt.Sprintf("%d", n.Started),
			fmt.Sprintf("%d", n.Dispositions.OK),
			fmt.Sprintf("%d", n.Dispositions.TimedOut),
			fmt.Sprintf("%d", n.Dispositions.Errored),
			fmt.Sprintf("%.1fms", n.MeanResidence*1000))
	}
	sb.WriteString(tb.String())
	return sb.String()
}
