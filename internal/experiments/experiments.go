// Package experiments contains one harness per table and figure of the
// paper's evaluation (§II and §V). Each harness builds the simulated
// testbed, drives the paper's workload, and returns the rows or series the
// paper reports; the top-level benchmarks (bench_test.go) print them.
//
// DESIGN.md's per-experiment index maps each harness to its experiment ID;
// EXPERIMENTS.md records paper-reported vs measured values.
package experiments

import (
	"fmt"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/workload"
)

// Measurement is one steady-state load measurement.
type Measurement struct {
	// Throughput is completed requests per second over the measurement
	// window.
	Throughput float64 `json:"throughput"`
	// RT summarizes end-to-end response times in the window.
	RT metrics.Summary `json:"rt"`
	// Errors is the number of failed requests.
	Errors uint64 `json:"errors"`
}

// SteadyState builds an app from cfg, drives it with a closed loop of
// users (think time think), discards warmup, and measures for measure.
// A non-nil chk attaches the runtime invariant checker to the app and
// engine and sweeps the structural laws once at the end of the run; the
// checker is read-only and draws no randomness, so the measurement is
// byte-identical either way.
func SteadyState(seed uint64, cfg ntier.Config, users int, think, warmup, measure time.Duration, chk *invariant.Checker) (Measurement, error) {
	r, err := assemble(runPlan{
		seed:  seed,
		chain: &cfg,
		chk:   chk,
		load: func(r *run, src *rng.Rand) (workload.Generator, error) {
			return workload.NewClosedLoop(r.eng, src, r.app, workload.ClosedLoopConfig{
				Users:     users,
				ThinkTime: think,
			})
		},
		midAt: warmup,
		mid: func(r *run) error {
			r.app.TakeStats() // discard warmup interval
			return nil
		},
		horizon: warmup + measure,
	})
	if err != nil {
		return Measurement{}, fmt.Errorf("experiments: steady state: %w", err)
	}
	st := r.app.TakeStats()
	return Measurement{
		Throughput: float64(st.Completions) / measure.Seconds(),
		RT:         st.RT,
		Errors:     st.Errors,
	}, nil
}

// fmtF renders a float for the report tables.
func fmtF(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}
