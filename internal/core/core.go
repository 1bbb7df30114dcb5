// Package core implements the DCM framework of §IV (Fig. 3): it wires the
// fine-grained resource monitor, the intermediate storage server (bus),
// the optimization controller, and the two actuators around a running
// n-tier application.
//
// Every control period (the paper uses 15 s) the framework consumes the
// monitoring samples accumulated on the bus, aggregates them into a
// SystemView, asks the controller for decisions, and carries the decisions
// out through the VM-agent and APP-agent. The action log is retained so
// experiments can report every scaling decision.
package core

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/actuator"
	"dcm/internal/bus"
	"dcm/internal/cloud"
	"dcm/internal/controller"
	"dcm/internal/graph"
	"dcm/internal/model"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/sim"
)

// Config parameterizes the framework.
type Config struct {
	// ControlPeriod is the controller's evaluation cadence (paper: 15 s).
	ControlPeriod time.Duration
	// MonitorInterval is the monitoring agents' cadence (paper: 1 s).
	MonitorInterval time.Duration
	// PrepDelay is the VM preparation period (paper: 15 s).
	PrepDelay time.Duration
}

// withDefaults fills in the paper's parameters.
func (c Config) withDefaults() Config {
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 15 * time.Second
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = time.Second
	}
	if c.PrepDelay < 0 {
		c.PrepDelay = 0
	} else if c.PrepDelay == 0 {
		c.PrepDelay = 15 * time.Second
	}
	return c
}

// ActionRecord is one dispatched controller action.
type ActionRecord struct {
	At     time.Duration     `json:"at"`
	Action controller.Action `json:"action"`
	// VM is the affected VM for scaling actions.
	VM string `json:"vm,omitempty"`
	// Err records a dispatch failure (empty on success).
	Err string `json:"err,omitempty"`
}

// ErrBadFramework is returned for invalid construction.
var ErrBadFramework = errors.New("core: invalid framework")

// Framework is the assembled DCM (or baseline) control plane.
type Framework struct {
	eng  *sim.Engine
	app  *graph.App
	ctrl controller.Controller
	cfg  Config

	b       *bus.Bus
	hv      *cloud.Hypervisor
	fleet   *monitor.Fleet
	vmAgent *actuator.VMAgent

	serverC *bus.Consumer
	systemC *bus.Consumer

	actions     []ActionRecord
	stop        func()
	prevCrashed map[string]int // tier -> crashed-serving census at last view
}

// New assembles a framework around app with the given controller.
func New(eng *sim.Engine, app *graph.App, ctrl controller.Controller, cfg Config) (*Framework, error) {
	if eng == nil || app == nil || ctrl == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadFramework)
	}
	cfg = cfg.withDefaults()

	b := bus.New()
	fleet, err := monitor.NewFleet(eng, b, app, cfg.MonitorInterval)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	hv := cloud.NewHypervisor(eng, cfg.PrepDelay)
	vmAgent, err := actuator.NewVMAgent(eng, hv, app, fleet)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Adopt the application's seed servers into the hypervisor so every
	// serving server is census-visible: a crashed seed server must show up
	// in CountCrashedServing just like a crashed scaled-out VM.
	for _, tierName := range app.NodeNames() {
		for _, m := range app.Members(tierName) {
			if _, err := hv.Adopt(m.Name(), tierName); err != nil {
				return nil, fmt.Errorf("core: adopt %s: %w", m.Name(), err)
			}
		}
	}
	return &Framework{
		eng:         eng,
		app:         app,
		ctrl:        ctrl,
		cfg:         cfg,
		b:           b,
		hv:          hv,
		fleet:       fleet,
		vmAgent:     vmAgent,
		serverC:     b.NewConsumer(monitor.TopicServerMetrics),
		systemC:     b.NewConsumer(monitor.TopicSystemMetrics),
		prevCrashed: make(map[string]int),
	}, nil
}

// Accessors for the assembled components.

// Bus returns the intermediate storage server.
func (f *Framework) Bus() *bus.Bus { return f.b }

// Hypervisor returns the simulated cloud substrate.
func (f *Framework) Hypervisor() *cloud.Hypervisor { return f.hv }

// Fleet returns the monitoring fleet.
func (f *Framework) Fleet() *monitor.Fleet { return f.fleet }

// VMAgent returns the VM-level actuator.
func (f *Framework) VMAgent() *actuator.VMAgent { return f.vmAgent }

// Start begins monitoring and the control loop. Start is idempotent.
func (f *Framework) Start() error {
	if f.stop != nil {
		return nil
	}
	if err := f.fleet.Start(); err != nil {
		return fmt.Errorf("core: start fleet: %w", err)
	}
	f.stop = f.eng.Ticker(f.cfg.ControlPeriod, f.controlStep)
	return nil
}

// Stop halts the control loop and the monitoring fleet.
func (f *Framework) Stop() {
	if f.stop != nil {
		f.stop()
		f.stop = nil
	}
	f.fleet.Stop()
}

// controlStep runs one control period: consume, aggregate, decide, act.
func (f *Framework) controlStep() {
	view := f.buildView()
	for _, action := range f.ctrl.Evaluate(view) {
		rec := ActionRecord{At: f.eng.Now(), Action: action}
		switch action.Type {
		case controller.ActionScaleOut:
			vm, err := f.vmAgent.ScaleOut(action.Tier)
			rec.VM = vm
			if err != nil {
				rec.Err = err.Error()
			}
		case controller.ActionScaleIn:
			vm, err := f.vmAgent.ScaleIn(action.Tier)
			rec.VM = vm
			if err != nil {
				rec.Err = err.Error()
			}
		case controller.ActionSetAllocation:
			ntier.SetAllocation(f.app, action.Allocation)
		default:
			rec.Err = fmt.Sprintf("unknown action type %v", action.Type)
		}
		f.actions = append(f.actions, rec)
	}
}

// buildView aggregates the bus samples accumulated since the previous
// control step.
func (f *Framework) buildView() controller.SystemView {
	view := controller.SystemView{
		At:         f.eng.Now(),
		Tiers:      make(map[string]controller.TierStats, 3),
		Allocation: ntier.Allocation(f.app),
	}

	// Which VMs count: only servers currently accepting traffic. Samples
	// from draining or already-removed servers would bias the tier
	// averages (e.g. a draining server's idle CPU suggesting scale-in).
	accepting := make(map[string]string) // vm -> tier
	for _, tierName := range f.app.NodeNames() {
		ready := 0
		for _, m := range f.app.Members(tierName) {
			if m.Accepting() {
				accepting[m.Name()] = tierName
				ready++
			}
		}
		// Diff the hypervisor's crashed-serving census against the previous
		// view: dead capacity detected this period.
		crashed := f.hv.CountCrashedServing(tierName)
		view.Tiers[tierName] = controller.TierStats{
			Tier:    tierName,
			Ready:   ready,
			Live:    ready + f.vmAgent.Pending(tierName),
			Crashed: crashed - f.prevCrashed[tierName],
		}
		f.prevCrashed[tierName] = crashed
	}

	type agg struct {
		cpuSum, activeSum, tpSum float64
		maxCPU                   float64
		n                        int
		points                   []model.Observation
	}
	aggs := make(map[string]*agg, 3)

	for _, m := range f.serverC.Poll(0) {
		s, ok := m.Value.(monitor.ServerSample)
		if !ok {
			continue
		}
		tierName, ok := accepting[s.VM]
		if !ok {
			continue
		}
		a := aggs[tierName]
		if a == nil {
			a = &agg{}
			aggs[tierName] = a
		}
		a.cpuSum += s.CPUUtil
		a.activeSum += s.ActiveThreads
		a.tpSum += s.Throughput
		if s.CPUUtil > a.maxCPU {
			a.maxCPU = s.CPUUtil
		}
		a.n++
		// Keep the fine-grained per-VM operating point for online
		// model estimation (§III-C).
		a.points = append(a.points, model.Observation{
			Concurrency: s.ActiveThreads,
			Throughput:  s.Throughput,
		})
	}
	periods := f.cfg.ControlPeriod.Seconds() / f.cfg.MonitorInterval.Seconds()
	for tierName, a := range aggs {
		ts := view.Tiers[tierName]
		ts.MeanCPU = a.cpuSum / float64(a.n)
		ts.MaxCPU = a.maxCPU
		ts.MeanActive = a.activeSum / float64(a.n)
		// Each sample's Throughput covers one monitor interval; the tier
		// rate over the period sums per-VM rates.
		ts.Throughput = a.tpSum / periods
		ts.Points = a.points
		view.Tiers[tierName] = ts
	}
	// Tiers with accepting servers but zero samples this period are dark
	// (monitor blackout), not idle: mark them so controllers hold rather
	// than misread the zero aggregates.
	for tierName, ts := range view.Tiers {
		if _, sampled := aggs[tierName]; !sampled && ts.Ready > 0 {
			ts.NoData = true
			view.Tiers[tierName] = ts
		}
	}

	var (
		tpSum, rtSum float64
		p95          float64
		n            int
	)
	for _, m := range f.systemC.Poll(0) {
		s, ok := m.Value.(monitor.SystemSample)
		if !ok {
			continue
		}
		tpSum += s.Throughput
		rtSum += s.MeanRTSeconds
		if s.P95RTSeconds > p95 {
			p95 = s.P95RTSeconds
		}
		n++
	}
	if n > 0 {
		view.Throughput = tpSum / float64(n)
		view.MeanRTSeconds = rtSum / float64(n)
		view.P95RTSeconds = p95
	}
	return view
}

// Actions returns a copy of the dispatched-action log.
func (f *Framework) Actions() []ActionRecord {
	out := make([]ActionRecord, len(f.actions))
	copy(out, f.actions)
	return out
}
