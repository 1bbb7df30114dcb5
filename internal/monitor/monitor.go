// Package monitor implements the fine-grained resource monitor of the DCM
// architecture (§IV, Fig. 3): one agent per VM collects system-level
// metrics (CPU utilization) and application-level metrics (throughput,
// response time, active thread count) every second and publishes them to
// the intermediate storage server (internal/bus), from which the
// optimization controller consumes them at its own rate.
//
// A per-VM ServerSample carries exactly At, VM, Tier, CPUUtil, Throughput
// and ActiveThreads: the agent reads them off one server.TakeSample, and
// nothing else has a reader. Response time is a whole-system quantity, so
// it travels in the SystemSample one system agent publishes per interval.
package monitor

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/bus"
	"dcm/internal/graph"
	"dcm/internal/ntier"
	"dcm/internal/sim"
)

// Topics the monitor publishes to.
const (
	// TopicServerMetrics carries per-VM ServerSample messages.
	TopicServerMetrics = "metrics.server"
	// TopicSystemMetrics carries whole-system SystemSample messages.
	TopicSystemMetrics = "metrics.system"
)

// ServerSample is one per-VM measurement interval, the unit the paper's
// monitoring agents ship to Kafka every second. It carries what the
// control loop reads and nothing more: the view aggregation in
// internal/core and the experiments' per-tier CPU series.
type ServerSample struct {
	At   time.Duration `json:"at"`
	VM   string        `json:"vm"`
	Tier string        `json:"tier"`
	// CPUUtil is the VM's CPU busy fraction in the interval.
	CPUUtil float64 `json:"cpuUtil"`
	// Throughput is the server's completed bursts per second.
	Throughput float64 `json:"throughput"`
	// ActiveThreads is the time-weighted mean request-processing
	// concurrency — the paper's "active threads number".
	ActiveThreads float64 `json:"activeThreads"`
}

// SystemSample is one whole-system measurement interval.
type SystemSample struct {
	At time.Duration `json:"at"`
	// Throughput is completed requests per second.
	Throughput float64 `json:"throughput"`
	// MeanRTSeconds and P95RTSeconds summarize end-to-end response times.
	MeanRTSeconds float64 `json:"meanRTSeconds"`
	P95RTSeconds  float64 `json:"p95RTSeconds"`
	// MeanAppResidence and MeanDBResidence attribute latency to tiers
	// (the app and db nodes' graph.Stats.NodeResidence).
	MeanAppResidence float64 `json:"meanAppResidence"`
	MeanDBResidence  float64 `json:"meanDBResidence"`
	// Errors is failed requests in the interval.
	Errors uint64 `json:"errors"`
}

// ErrBadFleet is returned for invalid fleet construction or attachment.
var ErrBadFleet = errors.New("monitor: invalid fleet")

// Fleet manages the monitoring agents of a running application: one agent
// per attached server plus one system-level agent.
type Fleet struct {
	eng      *sim.Engine
	b        *bus.Bus
	app      *graph.App
	interval time.Duration

	agents   map[string]func() // vm name -> stop
	sysTop   func()
	started  bool
	blackout bool
}

// NewFleet creates a monitoring fleet publishing to b every interval
// (default 1 s, the paper's agent cadence).
func NewFleet(eng *sim.Engine, b *bus.Bus, app *graph.App, interval time.Duration) (*Fleet, error) {
	if eng == nil || b == nil || app == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadFleet)
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &Fleet{
		eng:      eng,
		b:        b,
		app:      app,
		interval: interval,
		agents:   make(map[string]func()),
	}, nil
}

// SetBlackout suppresses (true) or restores (false) all sample publishing
// — the chaos monitor-blackout fault. Agents keep sampling on their
// cadence so server-side interval accumulators are still drained; the
// samples just never reach the bus, exactly like a monitoring pipeline
// outage. The controller consequently sees control periods with no data
// and must decide how to act on staleness.
func (f *Fleet) SetBlackout(v bool) { f.blackout = v }

// Blackout reports whether sample publishing is currently suppressed.
func (f *Fleet) Blackout() bool { return f.blackout }

// Start installs an agent on every current server plus the system agent.
// Start is idempotent.
func (f *Fleet) Start() error {
	if f.started {
		return nil
	}
	f.started = true
	for _, tierName := range f.app.NodeNames() {
		for _, m := range f.app.Members(tierName) {
			if err := f.Attach(tierName, m.Name()); err != nil {
				return err
			}
		}
	}
	f.sysTop = f.eng.Ticker(f.interval, f.publishSystem)
	return nil
}

// Attach installs a monitoring agent on one server — called by the
// VM-agent when a newly launched VM joins the system. Attaching twice is
// an error.
func (f *Fleet) Attach(tierName, vmName string) error {
	if _, exists := f.agents[vmName]; exists {
		return fmt.Errorf("%w: agent for %q already attached", ErrBadFleet, vmName)
	}
	member, err := f.app.Member(tierName, vmName)
	if err != nil {
		return fmt.Errorf("monitor: attach: %w", err)
	}
	stop := f.eng.Ticker(f.interval, func() {
		s := member.Server().TakeSample()
		sample := ServerSample{
			At:            f.eng.Now(),
			VM:            vmName,
			Tier:          tierName,
			CPUUtil:       s.Utilization,
			Throughput:    float64(s.Completions) / f.interval.Seconds(),
			ActiveThreads: s.MeanHeld,
		}
		// During a blackout the sample is taken (draining the server's
		// interval accumulators, as a real agent would) but never shipped.
		if f.blackout {
			return
		}
		f.b.Publish(TopicServerMetrics, vmName, sample)
	})
	f.agents[vmName] = stop
	return nil
}

// Detach removes the agent of a departing VM. Detaching an unknown VM is
// a no-op (the VM may have been terminated before its agent attached).
func (f *Fleet) Detach(vmName string) {
	if stop, ok := f.agents[vmName]; ok {
		stop()
		delete(f.agents, vmName)
	}
}

func (f *Fleet) publishSystem() {
	st := f.app.TakeStats()
	if f.blackout {
		return
	}
	sample := SystemSample{
		At:               f.eng.Now(),
		Throughput:       float64(st.Completions) / f.interval.Seconds(),
		MeanRTSeconds:    st.MeanRTSeconds,
		P95RTSeconds:     st.RT.P95,
		MeanAppResidence: st.NodeResidence[ntier.TierApp],
		MeanDBResidence:  st.NodeResidence[ntier.TierDB],
		Errors:           st.Errors,
	}
	f.b.Publish(TopicSystemMetrics, "system", sample)
}

// Stop halts all agents.
func (f *Fleet) Stop() {
	for name, stop := range f.agents {
		stop()
		delete(f.agents, name)
	}
	if f.sysTop != nil {
		f.sysTop()
		f.sysTop = nil
	}
	f.started = false
}
