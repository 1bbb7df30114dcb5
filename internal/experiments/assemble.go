package experiments

import (
	"fmt"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/cloud"
	"dcm/internal/controller"
	"dcm/internal/degrade"
	"dcm/internal/graph"
	"dcm/internal/invariant"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/policy"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/workload"
)

// assemble is the one place an experiment run is put together. It draws
// the rng root's splits in a fixed order: "app" (chain) or "graph", then
// "chaos" (only with a schedule), then "wl", then "retry" (only with
// retries enabled). Split consumes the parent stream, so this order fixes
// every result's bytes. The engine fires equal-time events in schedule
// order, so the order of the steps that schedule (wire hook, chaos,
// degrade supervisor, workload start, sampler) does too.

// appClasses is the app's class list for a workload's class mix, in the
// mix's order: the generator injects class i of the spec as class i of the
// app. The generator draws the weights, so the app's classes carry none,
// and each runs at the topology's default demand.
func appClasses(spec workload.WorkloadSpec) []graph.Class {
	classes := make([]graph.Class, len(spec.Classes))
	for i, c := range spec.Classes {
		classes[i] = graph.Class{Name: c.Name, Priority: c.Priority, SLO: c.SLO()}
	}
	return classes
}

// runPlan is what one run asks of the assembler. The hooks receive the run
// being assembled.
type runPlan struct {
	seed uint64
	// chain or graph configures the application. With neither the run has
	// none, and the workload drives a target of its own.
	chain *ntier.Config
	graph *graph.Config
	// chk, when non-nil, is attached to the application and the engine.
	chk *invariant.Checker
	// wire runs after the checker is attached and before chaos is
	// installed: a control plane, scripted faults, samplers that must tick
	// before the workload's.
	wire  func(*run) error
	chaos *chaos.Schedule
	retry *resilience.RetryPolicy
	// load builds the workload on the "wl" split.
	load func(*run, *rng.Rand) (workload.Generator, error)
	// degrade attaches the self-healing supervisor under
	// policy.Default().Degrade.
	degrade bool
	// sample runs once per simulated second from the workload's start.
	sample func(*run)
	// mid runs once the run reaches midAt.
	midAt   time.Duration
	mid     func(*run) error
	horizon time.Duration
}

// run is one assembled and executed experiment run.
type run struct {
	eng *sim.Engine
	app *graph.App
	chk *invariant.Checker
	// hv and fleet are what chaos faults act on. A wire hook that starts a
	// control plane sets them; otherwise chaos gets a bare hypervisor with
	// the paper's 15 s VM preparation delay.
	hv    *cloud.Hypervisor
	fleet *monitor.Fleet
	inj   *chaos.Injector
	ret   *resilience.Retrier
	gen   workload.Generator
	audit *controller.AuditLog
	// degrade is the supervisor's report, with the app's brownout sheds.
	degrade    *degrade.Report
	sweeps     int
	violations []invariant.Violation
	// wall is the wall-clock time the engine ran for.
	wall time.Duration
}

// assemble builds the run p describes, runs it to p.horizon and sweeps the
// checker a last time. Its errors, and the hooks', name the step that
// failed; the runner adds its own name.
func assemble(p runPlan) (*run, error) {
	r := &run{eng: sim.NewEngine(), chk: p.chk}
	root := rng.New(p.seed)
	var err error
	switch {
	case p.chain != nil:
		r.app, err = ntier.New(r.eng, root.Split("app"), *p.chain)
	case p.graph != nil:
		r.app, err = graph.New(r.eng, root.Split("graph"), *p.graph)
	}
	if err != nil {
		return nil, fmt.Errorf("app: %w", err)
	}
	if r.chk != nil {
		if r.app != nil {
			r.app.SetInvariantChecker(r.chk)
		}
		invariant.AttachEngine(r.chk, r.eng)
	}
	if p.wire != nil {
		if err := p.wire(r); err != nil {
			return nil, err
		}
	}
	if p.chaos != nil {
		if r.hv == nil {
			r.hv = cloud.NewHypervisor(r.eng, 15*time.Second)
		}
		if r.inj, err = chaos.NewInjector(r.eng, root.Split("chaos"), r.app, r.hv, r.fleet, *p.chaos); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		r.inj.Install()
	}
	wl := root.Split("wl")
	if p.retry != nil && p.retry.Enabled() {
		if r.ret, err = resilience.NewRetrier(*p.retry, root.Split("retry")); err != nil {
			return nil, fmt.Errorf("retrier: %w", err)
		}
	}
	if r.gen, err = p.load(r, wl); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	var sup *degrade.Supervisor
	if p.degrade {
		r.audit = controller.NewAuditLog()
		if sup, err = degrade.ForApp(r.eng, r.app, r.ret, r.audit, policy.Default().Degrade); err != nil {
			return nil, fmt.Errorf("degrade: %w", err)
		}
		sup.CaptureTimeline(p.horizon)
		sup.Start()
	}
	r.gen.Start()
	stopSample := func() {}
	if p.sample != nil {
		stopSample = r.eng.Ticker(time.Second, func() { p.sample(r) })
	}

	start := time.Now()
	if p.mid != nil {
		if err := r.eng.Run(p.midAt); err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		if err := p.mid(r); err != nil {
			return nil, err
		}
	}
	if err := r.eng.Run(p.horizon); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	r.wall = time.Since(start)
	stopSample()
	r.gen.Stop()
	if sup != nil {
		sup.Stop()
		rep := sup.Report()
		rep.BrownoutSheds = r.app.BrownoutSheds()
		r.degrade = &rep
	}
	r.sweep()
	if r.chk != nil {
		r.violations = r.chk.Violations()
	}
	return r, nil
}

// sweep checks the application's and the engine's structural laws. It is
// read-only, so a run is byte-identical with the checker on or off.
func (r *run) sweep() {
	if r.chk == nil {
		return
	}
	if r.app != nil {
		r.app.CheckInvariants()
	}
	invariant.CheckEngine(r.chk, r.eng)
	r.sweeps++
}

// checker returns a fresh invariant checker when on, and nil otherwise.
func checker(on bool) *invariant.Checker {
	if !on {
		return nil
	}
	return invariant.New()
}
