package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dcm/internal/controller"
	"dcm/internal/experiments"
	"dcm/internal/graph"
	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/runner"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

// A workload is one named set of inputs the benchmark runs. setup
// generates every input the runner call receives from the seed; run is
// the workload's adapter, the one function through which it reaches the
// program. A change to how the program assembles a scenario edits only
// the adapters, and the output digest proves the new path simulates the
// same thing.
type workloadDef struct {
	name  string
	setup func(seed uint64, dir string) (benchRun, error)
}

// benchRun is one workload's generated inputs, ready to run.
type benchRun interface {
	// run makes the timed runner call. traced switches on the runner's
	// invariant checker (and the decision audit, where there is one).
	run(traced bool) (outcome, error)
	// shape describes the workload to the layer ladder.
	shape() ladderShape
}

// outcome is what one runner call produced, reduced to what the
// benchmark checks and reports.
type outcome struct {
	// digest is the sha256 of the result with wall-clock and
	// observer-only fields zeroed (see digestOf); statsDigest also leaves
	// out the engine counters the invariant checker moves.
	digest, statsDigest string
	// requests counts simulated requests finished: completed + failed.
	requests uint64
	// check is the result of the conservation checks (nil when they hold).
	check error
	// violations counts invariant violations (traced runs only).
	violations int
	// decisions is the controller's audit log (fig5-dcm traced runs only).
	decisions []controller.Decision
	// layer holds per-layer values read from the result's accessors.
	layer map[string]float64
}

var workloads = []workloadDef{
	{name: "fig5-dcm", setup: setupFig5},
	{name: "fanout5-flash", setup: setupFanout5},
	{name: "million-users", setup: setupMillion},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// viaRunner makes one call through the runner pool at one worker, the
// way every experiment in the repository reaches the simulator.
func viaRunner[R any](fn func() (R, error)) (R, error) {
	out, err := runner.Map([]int{0}, 1, func(int, int) (R, error) { return fn() })
	if err != nil {
		var zero R
		return zero, err
	}
	return out[0], nil
}

// fig5 is the paper's headline run: the DCM controller on the web→app→db
// chain under the large-variation trace, closed loop, resilience off.
type fig5 struct {
	seed  uint64
	trace *trace.Trace
	alloc model.Allocation
}

func setupFig5(seed uint64, _ string) (benchRun, error) {
	return &fig5{
		seed:  seed,
		trace: trace.SynthesizeLargeVariation(seed),
		// Fig. 5's initial soft allocation, 1000/200/40.
		alloc: model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 200, DBConnsPerAppServer: 40},
	}, nil
}

func (f *fig5) run(traced bool) (outcome, error) {
	res, err := viaRunner(func() (*experiments.ScenarioResult, error) {
		return experiments.RunScenario(experiments.ScenarioConfig{
			Seed:              f.seed,
			Kind:              experiments.ControllerDCM,
			Trace:             f.trace,
			ThinkTime:         3 * time.Second,
			InitialAllocation: f.alloc,
			Invariants:        traced,
			Audit:             traced,
		})
	})
	if err != nil {
		return outcome{}, fmt.Errorf("fig5-dcm: %w", err)
	}
	out := outcome{
		digest:      digestOf(res),
		statsDigest: statsDigest(res),
		requests:    res.TotalCompleted + res.TotalErrors,
		check:       checkScenario(res),
		violations:  len(res.InvariantViolations),
		decisions:   res.Decisions,
		layer: map[string]float64{
			"control.actions":     float64(len(res.Actions)),
			"resilience.ok_ratio": float64(res.TotalCompleted) / float64(max(res.TotalCompleted+res.TotalErrors, 1)),
		},
	}
	for _, tl := range res.TierLatency {
		switch tl.Tier {
		case ntier.TierApp:
			out.layer["tier.app.queue_p95"] = tl.QueueDepthP95
			out.layer["tier.app.pool_wait_p95_ms"] = tl.PoolWaitP95 * 1e3
		case ntier.TierDB:
			out.layer["tier.db.service_p95_ms"] = tl.ServiceP95 * 1e3
		}
	}
	return out, nil
}

// fanout5 is the DAG workload: fan-out and join, an async audit edge and
// two pooled DB edges, an NHPP flash crowd of two classes under the full
// resilience preset, with the per-node controllers armed.
type fanout5 struct {
	seed     uint64
	topology string // path of the generated topology file
	spec     graph.Spec
	wspec    workload.WorkloadSpec
	rate     float64
	horizon  time.Duration
	timeout  time.Duration
}

func setupFanout5(seed uint64, dir string) (benchRun, error) {
	f := &fanout5{seed: seed, rate: 150, horizon: 120 * time.Second, timeout: time.Second}
	data, err := json.Marshal(experiments.Fanout5Spec())
	if err != nil {
		return nil, fmt.Errorf("fanout5-flash: topology: %w", err)
	}
	f.topology = filepath.Join(dir, "fanout5.json")
	if err := os.WriteFile(f.topology, data, 0o644); err != nil {
		return nil, fmt.Errorf("fanout5-flash: topology: %w", err)
	}
	if f.spec, err = graph.LoadSpec(f.topology); err != nil {
		return nil, fmt.Errorf("fanout5-flash: %w", err)
	}
	// The flash crowd RunGraph drives: base rate for the first quarter,
	// a 10 s ramp to 4x, held for half the horizon.
	f.wspec = workload.WorkloadSpec{
		Name: "graph-bursty",
		Kind: workload.KindOpen,
		Arrivals: &workload.RateSpec{
			Curve:       workload.CurveFlashCrowd,
			Rate:        f.rate,
			PeakRate:    4 * f.rate,
			AtSeconds:   (f.horizon / 4).Seconds(),
			RampSeconds: 10,
			HoldSeconds: (f.horizon / 2).Seconds(),
		},
		Classes: []workload.ClassSpec{
			{Name: "premium", Weight: 0.2, Priority: 1, SLOSeconds: (f.timeout / 2).Seconds()},
			{Name: "basic", Weight: 0.8},
		},
	}
	if err := f.wspec.Validate(); err != nil {
		return nil, fmt.Errorf("fanout5-flash: workload spec: %w", err)
	}
	return f, nil
}

func (f *fanout5) run(traced bool) (outcome, error) {
	res, err := viaRunner(func() (experiments.GraphResult, error) {
		return experiments.RunGraph(experiments.GraphConfig{
			Seed:        f.seed,
			Topology:    f.topology,
			Rate:        f.rate,
			Horizon:     f.horizon,
			Timeout:     f.timeout,
			Controllers: true,
			Invariants:  traced,
		})
	})
	if err != nil {
		return outcome{}, fmt.Errorf("fanout5-flash: %w", err)
	}
	d := res.Dispositions
	attempted := float64(max(res.Scheduled, 1))
	return outcome{
		digest:      digestOf(res),
		statsDigest: statsDigest(res),
		requests:    res.Completed + res.Errors,
		check:       checkGraph(res),
		violations:  len(res.InvariantViolations),
		layer: map[string]float64{
			"sim.events_per_req":      float64(res.Events) / float64(max(res.Completed+res.Errors, 1)),
			"resilience.ok_ratio":     float64(d.OK) / attempted,
			"resilience.reject_ratio": float64(d.Rejected) / attempted,
			"resilience.shed_ratio":   float64(d.Shed) / attempted,
		},
	}, nil
}

// million is the event-core smoke: a closed loop ramped to 10⁶ live
// users against a fixed 1 ms target, with no application at all.
type million struct {
	seed  uint64
	trace *trace.Trace
}

func setupMillion(seed uint64, _ string) (benchRun, error) {
	// RunMillionSmoke's default trace: a 40 s sine ramping from a third of
	// the peak up to 10⁶ users and back.
	const peak = 1_000_000
	mean := (peak*3 + 4) / 5
	total := 40 * time.Second
	tr, err := trace.SynthesizeSine("million-sine", mean, peak-mean, total/2, total, time.Second)
	if err != nil {
		return nil, fmt.Errorf("million-users: trace: %w", err)
	}
	return &million{seed: seed, trace: tr}, nil
}

func (m *million) run(traced bool) (outcome, error) {
	res, err := viaRunner(func() (experiments.MillionSmokeResult, error) {
		return experiments.RunMillionSmoke(experiments.MillionSmokeConfig{
			Seed:       m.seed,
			Trace:      m.trace,
			Invariants: traced,
		})
	})
	if err != nil {
		return outcome{}, fmt.Errorf("million-users: %w", err)
	}
	return outcome{
		digest:      digestOf(res),
		statsDigest: statsDigest(res),
		requests:    res.Completed,
		check:       checkMillion(res),
		violations:  len(res.InvariantViolations),
		layer: map[string]float64{
			"sim.events_per_req":  float64(res.Events) / float64(max(res.Completed, 1)),
			"sim.peak_pending":    float64(res.PeakPending),
			"resilience.ok_ratio": 1,
		},
	}, nil
}
