// Package dcm reproduces "DCM: Dynamic Concurrency Management for Scaling
// n-Tier Applications in Cloud" (Chen, Wang, Palanisamy, Xiong — ICDCS
// 2017) as a deterministic discrete-event simulation plus the paper's
// controller, implemented entirely in Go with the standard library.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/sim, internal/rng — deterministic discrete-event engine;
//   - internal/server, internal/connpool, internal/lb, internal/graph —
//     the simulated service graph with thread pools, DB connection pools
//     and HAProxy-style balancing;
//   - internal/ntier — the paper's RUBBoS-style 3-tier chain (Apache /
//     Tomcat / MySQL): its Table I calibration and its translation into a
//     3-node graph;
//   - internal/workload, internal/trace — the paper's three workload
//     generators and bursty trace synthesis;
//   - internal/bus, internal/monitor, internal/cloud — the Kafka-like
//     metric log, per-VM monitoring agents, and the VM lifecycle;
//   - internal/fit, internal/model — least-squares fitting and the
//     concurrency-aware performance model (Equations 1–8);
//   - internal/controller, internal/actuator, internal/core — the DCM and
//     EC2-AutoScale controllers, the two actuators, and the assembled
//     framework;
//   - internal/experiments — one harness per table and figure of the
//     paper's evaluation.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for
// paper-vs-measured results, and examples/ for runnable entry points.
package dcm

import (
	"time"

	"dcm/internal/controller"
	"dcm/internal/experiments"
	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/trace"
)

// Re-exported model types: the concurrency-aware performance model of §III.
type (
	// Params are the Equation 5/7 parameters of one tier.
	Params = model.Params
	// Observation is a (concurrency, throughput) training point.
	Observation = model.Observation
	// TrainResult is a fitted tier model.
	TrainResult = model.TrainResult
	// Allocation is a #W_T/#A_T/#A_C soft-resource setting.
	Allocation = model.Allocation
)

// Re-exported scenario types: the §V-B evaluation harness.
type (
	// ScenarioConfig parameterizes a Fig. 5-style run.
	ScenarioConfig = experiments.ScenarioConfig
	// ScenarioResult holds its per-second series and logs.
	ScenarioResult = experiments.ScenarioResult
	// ControllerKind selects the scaling policy.
	ControllerKind = experiments.ControllerKind
)

// Scenario controllers.
const (
	ControllerDCM = experiments.ControllerDCM
	ControllerEC2 = experiments.ControllerEC2
)

// TableI returns the paper's published model parameters.
func TableI() (tomcat, mysql Params) { return model.TableI() }

// Train fits Equation 7 to observations (§V-A's training step).
func Train(obs []Observation, opts model.TrainOptions) (TrainResult, error) {
	return model.Train(obs, opts)
}

// PlanAllocation computes the near-optimal soft-resource allocation for a
// topology from trained tier models (§IV-B's APP-agent planning step).
func PlanAllocation(in model.AllocationInput) (Allocation, error) {
	return model.PlanAllocation(in)
}

// DefaultAppConfig returns the calibrated simulated-testbed configuration
// (see internal/ntier.DefaultConfig).
func DefaultAppConfig() ntier.Config { return ntier.DefaultConfig() }

// DefaultPolicy returns the §V-B threshold policy shared by both
// controllers.
func DefaultPolicy() controller.Policy { return controller.DefaultPolicy() }

// RunScenario executes one §V-B scenario (DCM or a baseline against a
// bursty trace) and returns its full time series.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	return experiments.RunScenario(cfg)
}

// LargeVariationTrace synthesizes the stand-in for the "Large Variation"
// workload trace of §V-B.
func LargeVariationTrace(seed uint64) *trace.Trace {
	return trace.SynthesizeLargeVariation(seed)
}

// TrainModels runs the full §V-A training (Table I) against the simulated
// testbed.
func TrainModels(seed uint64, measure time.Duration) (tomcat, mysql experiments.Table1Row, err error) {
	return experiments.Table1(seed, measure)
}
