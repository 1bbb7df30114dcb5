package experiments

import (
	"fmt"
	"time"

	"dcm/internal/controller"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/policy"
	"dcm/internal/runner"
	"dcm/internal/workload"
)

// runKinds executes one scenario per controller kind concurrently (each
// run has its own engine and rng) and returns the results in kind order.
func runKinds(seed uint64, kinds []ControllerKind, label string) ([]*ScenarioResult, error) {
	return runner.Map(kinds, 0, func(_ int, kind ControllerKind) (*ScenarioResult, error) {
		res, err := RunScenario(ScenarioConfig{Seed: seed, Kind: kind})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", label, kind, err)
		}
		return res, nil
	})
}

// AblationSoftOnly (A1) isolates the two levels of DCM: the full
// controller, the hardware-only baseline, the APP-agent alone (soft
// resources re-optimized but the fleet frozen at 1/1/1), and a static
// do-nothing run — answering how much of Fig. 5's stability comes from
// soft-resource adaptation versus VM scaling.
func AblationSoftOnly(seed uint64) ([]*ScenarioResult, error) {
	return runKinds(seed, []ControllerKind{
		ControllerDCM,
		ControllerEC2,
		ControllerDCMSoftOnly,
		ControllerNone,
	}, "ablation soft-only")
}

// SensitivityRow reports one model-misestimation variant (A2).
type SensitivityRow struct {
	// Label identifies the perturbation.
	Label string `json:"label"`
	// PlannedN is the per-server Tomcat concurrency the perturbed model
	// recommends.
	PlannedN int `json:"plannedN"`
	// Summary is the resulting scenario summary.
	Summary ScenarioSummary `json:"summary"`
}

// AblationModelSensitivity (A2) runs DCM with deliberately misestimated
// Tomcat models — β off by 4x in each direction shifts the planned optimum
// to roughly half and double the true N_b — quantifying how much a wrong
// model costs.
func AblationModelSensitivity(seed uint64) ([]SensitivityRow, error) {
	tomcat, mysql := TrainedModels()
	variants := []struct {
		label string
		scale float64 // multiplier on beta
	}{
		{"beta x4 (under-provision threads)", 4},
		{"trained model", 1},
		{"beta /4 (over-provision threads)", 0.25},
	}
	return runner.Map(variants, 0, func(_ int, v struct {
		label string
		scale float64
	}) (SensitivityRow, error) {
		perturbed := tomcat
		perturbed.Beta *= v.scale
		plannedN, ok := perturbed.OptimalConcurrencyInt()
		if !ok {
			return SensitivityRow{}, fmt.Errorf("experiments: ablation sensitivity %q: no optimum", v.label)
		}
		res, err := RunScenario(ScenarioConfig{
			Seed:        seed,
			Kind:        ControllerDCM,
			TomcatModel: perturbed,
			MySQLModel:  mysql,
		})
		if err != nil {
			return SensitivityRow{}, fmt.Errorf("experiments: ablation sensitivity %q: %w", v.label, err)
		}
		return SensitivityRow{
			Label:    v.label,
			PlannedN: plannedN,
			Summary:  res.Summarize(),
		}, nil
	})
}

// PolicyRow reports one scaling-policy variant (A3/A4).
type PolicyRow struct {
	Label   string          `json:"label"`
	Summary ScenarioSummary `json:"summary"`
	// ScaleActions counts VM-level scaling decisions taken.
	ScaleActions int `json:"scaleActions"`
}

// AblationScalePolicy (A3) compares the paper's "quick start, slow turn
// off" (3 consecutive quiet periods before scale-in) against a symmetric
// trigger-happy policy (1 period), on the DCM controller.
func AblationScalePolicy(seed uint64) ([]PolicyRow, error) {
	variants := []struct {
		label       string
		consecutive int
	}{
		{"slow turn off (3 periods)", 3},
		{"symmetric (1 period)", 1},
	}
	return runner.Map(variants, 0, func(_ int, v struct {
		label       string
		consecutive int
	}) (PolicyRow, error) {
		rules := policy.Default()
		rules.Scaling.LowerConsecutive = v.consecutive
		res, err := RunScenario(ScenarioConfig{
			Seed:  seed,
			Kind:  ControllerDCM,
			Rules: &rules,
		})
		if err != nil {
			return PolicyRow{}, fmt.Errorf("experiments: ablation policy %q: %w", v.label, err)
		}
		return PolicyRow{
			Label:        v.label,
			Summary:      res.Summarize(),
			ScaleActions: countScaleActions(res),
		}, nil
	})
}

// AblationControlPeriod (A4) sweeps the control period (5 s / 15 s / 30 s)
// for both controllers, probing the paper's choice of 15 s.
func AblationControlPeriod(seed uint64) ([]PolicyRow, error) {
	periods := []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second}
	type cell struct {
		kind   ControllerKind
		period time.Duration
	}
	var cells []cell
	for _, kind := range []ControllerKind{ControllerDCM, ControllerEC2} {
		for _, period := range periods {
			cells = append(cells, cell{kind: kind, period: period})
		}
	}
	return runner.Map(cells, 0, func(_ int, c cell) (PolicyRow, error) {
		res, err := RunScenario(ScenarioConfig{
			Seed:          seed,
			Kind:          c.kind,
			ControlPeriod: c.period,
		})
		if err != nil {
			return PolicyRow{}, fmt.Errorf("experiments: ablation period %v %s: %w", c.period, c.kind, err)
		}
		return PolicyRow{
			Label:        fmt.Sprintf("%s @ %v", c.kind, c.period),
			Summary:      res.Summarize(),
			ScaleActions: countScaleActions(res),
		}, nil
	})
}

func countScaleActions(res *ScenarioResult) int {
	n := 0
	for _, rec := range res.Actions {
		if rec.Action.Type == controller.ActionScaleOut || rec.Action.Type == controller.ActionScaleIn {
			n++
		}
	}
	return n
}

// RenderSensitivity renders the A2 rows.
func RenderSensitivity(rows []SensitivityRow) string {
	tb := metrics.NewTable("variant", "planned N", "mean RT (s)", "max RT (s)", "spikes >1s", "completed")
	for _, r := range rows {
		tb.AddRow(r.Label, fmt.Sprintf("%d", r.PlannedN), fmtF(r.Summary.MeanRTSec, 3),
			fmtF(r.Summary.MaxRTSec, 3), fmt.Sprintf("%d", r.Summary.SpikeSeconds),
			fmt.Sprintf("%d", r.Summary.TotalCompleted))
	}
	return tb.String()
}

// RenderPolicyRows renders A3/A4 rows.
func RenderPolicyRows(rows []PolicyRow) string {
	tb := metrics.NewTable("variant", "mean RT (s)", "max RT (s)", "spikes >1s", "completed", "scale actions")
	for _, r := range rows {
		tb.AddRow(r.Label, fmtF(r.Summary.MeanRTSec, 3), fmtF(r.Summary.MaxRTSec, 3),
			fmt.Sprintf("%d", r.Summary.SpikeSeconds), fmt.Sprintf("%d", r.Summary.TotalCompleted),
			fmt.Sprintf("%d", r.ScaleActions))
	}
	return tb.String()
}

// AblationPredictive (A6) compares reactive and predictive (Holt
// forecast) scale-out for both controllers under the bursty trace,
// quantifying how much of the remaining transient the §VI extension
// removes.
func AblationPredictive(seed uint64) ([]*ScenarioResult, error) {
	return runKinds(seed, []ControllerKind{
		ControllerDCM,
		ControllerDCMPredictive,
		ControllerEC2,
		ControllerEC2Predictive,
	}, "ablation predictive")
}

// AblationBaselines (A7) compares DCM against the full baseline ladder:
// the paper's threshold policy, modern target tracking, and the predictive
// variant — all hardware-only. No matter how sophisticated the VM-level
// policy, the concurrency misallocation remains.
func AblationBaselines(seed uint64) ([]*ScenarioResult, error) {
	return runKinds(seed, []ControllerKind{
		ControllerDCM,
		ControllerEC2,
		ControllerTargetTracking,
		ControllerEC2Predictive,
	}, "ablation baselines")
}

// AblationOnlineTraining (A5) starts DCM from a deliberately wrong Tomcat
// model (β/16: planned N_b ≈ 80 instead of 20) and compares three
// variants: the wrong model held statically, the wrong model with §III-C's
// online re-estimation enabled, and the correctly trained static model.
// Online training should close most of the gap to the correct model.
func AblationOnlineTraining(seed uint64) ([]SensitivityRow, error) {
	tomcat, mysql := TrainedModels()
	wrong := tomcat
	wrong.Beta /= 16

	variants := []struct {
		label  string
		model  model.Params
		online bool
	}{
		{"wrong model, static", wrong, false},
		{"wrong model, online re-training", wrong, true},
		{"trained model, static", tomcat, false},
	}
	return runner.Map(variants, 0, func(_ int, v struct {
		label  string
		model  model.Params
		online bool
	}) (SensitivityRow, error) {
		plannedN, ok := v.model.OptimalConcurrencyInt()
		if !ok {
			return SensitivityRow{}, fmt.Errorf("experiments: ablation online %q: no optimum", v.label)
		}
		res, err := RunScenario(ScenarioConfig{
			Seed:           seed,
			Kind:           ControllerDCM,
			TomcatModel:    v.model,
			MySQLModel:     mysql,
			OnlineTraining: v.online,
		})
		if err != nil {
			return SensitivityRow{}, fmt.Errorf("experiments: ablation online %q: %w", v.label, err)
		}
		return SensitivityRow{
			Label:    v.label,
			PlannedN: plannedN,
			Summary:  res.Summarize(),
		}, nil
	})
}

// AblationBurstyWorkload (A8) swaps the trace-driven workload for the
// Markov-modulated burstiness injection of Mi et al. ([23]) — surges are
// abrupt and unpredictable rather than ramped — and compares both
// controllers.
func AblationBurstyWorkload(seed uint64) ([]*ScenarioResult, error) {
	bursty := &workload.BurstyConfig{
		Users:       2600,
		NormalThink: 12 * time.Second,
		SurgeThink:  2 * time.Second,
		NormalDwell: 60 * time.Second,
		SurgeDwell:  40 * time.Second,
	}
	return runner.Map([]ControllerKind{ControllerDCM, ControllerEC2}, 0,
		func(_ int, kind ControllerKind) (*ScenarioResult, error) {
			res, err := RunScenario(ScenarioConfig{
				Seed:    seed,
				Kind:    kind,
				Bursty:  bursty,
				Horizon: 600 * time.Second,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation bursty %s: %w", kind, err)
			}
			return res, nil
		})
}

// SeedSummary aggregates one controller's headline metrics across seeds.
type SeedSummary struct {
	Kind ControllerKind `json:"kind"`
	// MeanRT / Spikes / Completed are per-seed values.
	MeanRT    []float64 `json:"meanRT"`
	Spikes    []int     `json:"spikes"`
	Completed []uint64  `json:"completed"`
}

// MultiSeedComparison runs the Fig. 5 comparison across several seeds with
// service-time noise enabled, demonstrating that the headline result is a
// property of the system rather than of one deterministic run. Each seed
// gets its own synthetic trace realization (jitter) and noisy service
// times.
func MultiSeedComparison(seeds []uint64, noise float64) (dcmS, ec2S SeedSummary, err error) {
	if len(seeds) == 0 {
		return dcmS, ec2S, fmt.Errorf("experiments: no seeds")
	}
	dcmS.Kind, ec2S.Kind = ControllerDCM, ControllerEC2

	// Flatten the (seed × kind) grid into one batch — this is the heaviest
	// sweep in the repo, and every cell is an independent simulation. The
	// worker pool returns summaries in input order, so the per-seed slices
	// are assembled exactly as the serial nested loops built them.
	type cell struct {
		seed uint64
		kind ControllerKind
	}
	kinds := []ControllerKind{ControllerDCM, ControllerEC2}
	cells := make([]cell, 0, len(seeds)*len(kinds))
	for _, seed := range seeds {
		for _, kind := range kinds {
			cells = append(cells, cell{seed: seed, kind: kind})
		}
	}
	summaries, err := runner.Map(cells, 0, func(_ int, c cell) (ScenarioSummary, error) {
		res, err := RunScenario(ScenarioConfig{
			Seed:       c.seed,
			Kind:       c.kind,
			NoiseSigma: noise,
		})
		if err != nil {
			return ScenarioSummary{}, fmt.Errorf("experiments: multi-seed %d %s: %w", c.seed, c.kind, err)
		}
		return res.Summarize(), nil
	})
	if err != nil {
		return dcmS, ec2S, err
	}
	for i, c := range cells {
		s := summaries[i]
		agg := &dcmS
		if c.kind == ControllerEC2 {
			agg = &ec2S
		}
		agg.MeanRT = append(agg.MeanRT, s.MeanRTSec)
		agg.Spikes = append(agg.Spikes, s.SpikeSeconds)
		agg.Completed = append(agg.Completed, s.TotalCompleted)
	}
	return dcmS, ec2S, nil
}

// RenderMultiSeed renders the per-seed distributions.
func RenderMultiSeed(dcmS, ec2S SeedSummary, seeds []uint64) string {
	tb := metrics.NewTable("seed", "DCM meanRT(s)", "DCM spikes", "EC2 meanRT(s)", "EC2 spikes",
		"DCM completed", "EC2 completed")
	for i, seed := range seeds {
		tb.AddRow(fmt.Sprintf("%d", seed),
			fmtF(dcmS.MeanRT[i], 3), fmt.Sprintf("%d", dcmS.Spikes[i]),
			fmtF(ec2S.MeanRT[i], 3), fmt.Sprintf("%d", ec2S.Spikes[i]),
			fmt.Sprintf("%d", dcmS.Completed[i]), fmt.Sprintf("%d", ec2S.Completed[i]))
	}
	dcmRT := metrics.Summarize(dcmS.MeanRT)
	ec2RT := metrics.Summarize(ec2S.MeanRT)
	return tb.String() + fmt.Sprintf(
		"\nDCM mean RT across seeds: %.3fs ± %.3fs   EC2: %.3fs ± %.3fs\n",
		dcmRT.Mean, dcmRT.Stddev, ec2RT.Mean, ec2RT.Stddev)
}
