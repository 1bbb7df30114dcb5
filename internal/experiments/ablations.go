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

// runScenarios executes one scenario per config concurrently (each run
// has its own engine and rng) and returns the results in config order.
// name and labels[i] name run i in its error.
func runScenarios(name string, labels []string, cfgs []ScenarioConfig) ([]*ScenarioResult, error) {
	return runner.Map(cfgs, 0, func(i int, cfg ScenarioConfig) (*ScenarioResult, error) {
		res, err := RunScenario(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", name, labels[i], err)
		}
		return res, nil
	})
}

// runKinds runs base once per controller kind, in kind order.
func runKinds(name string, base ScenarioConfig, kinds []ControllerKind) ([]*ScenarioResult, error) {
	labels := make([]string, len(kinds))
	cfgs := make([]ScenarioConfig, len(kinds))
	for i, kind := range kinds {
		labels[i] = string(kind)
		cfgs[i] = base
		cfgs[i].Kind = kind
	}
	return runScenarios(name, labels, cfgs)
}

// AblationSoftOnly (A1) isolates the two levels of DCM: the full
// controller, the hardware-only baseline, the APP-agent alone (soft
// resources re-optimized but the fleet frozen at 1/1/1), and a static
// do-nothing run — answering how much of Fig. 5's stability comes from
// soft-resource adaptation versus VM scaling.
func AblationSoftOnly(seed uint64) ([]*ScenarioResult, error) {
	return runKinds("ablation soft-only", ScenarioConfig{Seed: seed}, []ControllerKind{
		ControllerDCM,
		ControllerEC2,
		ControllerDCMSoftOnly,
		ControllerNone,
	})
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
	tomcat, _ := TrainedModels()
	under, over := tomcat, tomcat
	under.Beta *= 4
	over.Beta *= 0.25
	return sensitivityRows("ablation sensitivity", seed, []modelVariant{
		{"beta x4 (under-provision threads)", under, false},
		{"trained model", tomcat, false},
		{"beta /4 (over-provision threads)", over, false},
	})
}

// modelVariant is one Tomcat model the A2 and A5 ablations run DCM with,
// with or without online re-training.
type modelVariant struct {
	label  string
	model  model.Params
	online bool
}

// sensitivityRows runs DCM once per variant, against the trained MySQL
// model, and reports each variant's planned N_b and scenario summary.
func sensitivityRows(name string, seed uint64, variants []modelVariant) ([]SensitivityRow, error) {
	_, mysql := TrainedModels()
	rows := make([]SensitivityRow, len(variants))
	labels := make([]string, len(variants))
	cfgs := make([]ScenarioConfig, len(variants))
	for i, v := range variants {
		plannedN, ok := v.model.OptimalConcurrencyInt()
		if !ok {
			return nil, fmt.Errorf("experiments: %s %q: no optimum", name, v.label)
		}
		rows[i] = SensitivityRow{Label: v.label, PlannedN: plannedN}
		labels[i] = fmt.Sprintf("%q", v.label)
		cfgs[i] = ScenarioConfig{
			Seed:           seed,
			Kind:           ControllerDCM,
			TomcatModel:    v.model,
			MySQLModel:     mysql,
			OnlineTraining: v.online,
		}
	}
	results, err := runScenarios(name, labels, cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].Summary = res.Summarize()
	}
	return rows, nil
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
	labels := []string{"slow turn off (3 periods)", "symmetric (1 period)"}
	cfgs := make([]ScenarioConfig, len(labels))
	for i, consecutive := range []int{3, 1} {
		rules := policy.Default()
		rules.Scaling.LowerConsecutive = consecutive
		cfgs[i] = ScenarioConfig{Seed: seed, Kind: ControllerDCM, Rules: &rules}
	}
	return policyRows("ablation policy", labels, cfgs)
}

// AblationControlPeriod (A4) sweeps the control period (5 s / 15 s / 30 s)
// for both controllers, probing the paper's choice of 15 s.
func AblationControlPeriod(seed uint64) ([]PolicyRow, error) {
	var labels []string
	var cfgs []ScenarioConfig
	for _, kind := range []ControllerKind{ControllerDCM, ControllerEC2} {
		for _, period := range []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second} {
			labels = append(labels, fmt.Sprintf("%s @ %v", kind, period))
			cfgs = append(cfgs, ScenarioConfig{Seed: seed, Kind: kind, ControlPeriod: period})
		}
	}
	return policyRows("ablation period", labels, cfgs)
}

// policyRows runs each config and reports its summary and its count of
// VM-level scaling actions, labelled by labels.
func policyRows(name string, labels []string, cfgs []ScenarioConfig) ([]PolicyRow, error) {
	results, err := runScenarios(name, labels, cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyRow, len(results))
	for i, res := range results {
		rows[i] = PolicyRow{Label: labels[i], Summary: res.Summarize(), ScaleActions: countScaleActions(res)}
	}
	return rows, nil
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
	return runKinds("ablation predictive", ScenarioConfig{Seed: seed}, []ControllerKind{
		ControllerDCM,
		ControllerDCMPredictive,
		ControllerEC2,
		ControllerEC2Predictive,
	})
}

// AblationBaselines (A7) compares DCM against the full baseline ladder:
// the paper's threshold policy, modern target tracking, and the predictive
// variant — all hardware-only. No matter how sophisticated the VM-level
// policy, the concurrency misallocation remains.
func AblationBaselines(seed uint64) ([]*ScenarioResult, error) {
	return runKinds("ablation baselines", ScenarioConfig{Seed: seed}, []ControllerKind{
		ControllerDCM,
		ControllerEC2,
		ControllerTargetTracking,
		ControllerEC2Predictive,
	})
}

// AblationOnlineTraining (A5) starts DCM from a deliberately wrong Tomcat
// model (β/16: planned N_b ≈ 80 instead of 20) and compares three
// variants: the wrong model held statically, the wrong model with §III-C's
// online re-estimation enabled, and the correctly trained static model.
// Online training should close most of the gap to the correct model.
func AblationOnlineTraining(seed uint64) ([]SensitivityRow, error) {
	tomcat, _ := TrainedModels()
	wrong := tomcat
	wrong.Beta /= 16
	return sensitivityRows("ablation online", seed, []modelVariant{
		{"wrong model, static", wrong, false},
		{"wrong model, online re-training", wrong, true},
		{"trained model, static", tomcat, false},
	})
}

// AblationBurstyWorkload (A8) swaps the trace-driven workload for the
// Markov-modulated burstiness injection of Mi et al. ([23]) — surges are
// abrupt and unpredictable rather than ramped — and compares both
// controllers.
func AblationBurstyWorkload(seed uint64) ([]*ScenarioResult, error) {
	return runKinds("ablation bursty", ScenarioConfig{
		Seed: seed,
		Bursty: &workload.BurstyConfig{
			Users:       2600,
			NormalThink: 12 * time.Second,
			SurgeThink:  2 * time.Second,
			NormalDwell: 60 * time.Second,
			SurgeDwell:  40 * time.Second,
		},
		Horizon: 600 * time.Second,
	}, []ControllerKind{ControllerDCM, ControllerEC2})
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
	// results come back in input order, so the per-seed slices are
	// assembled exactly as the serial nested loops built them.
	var labels []string
	var cfgs []ScenarioConfig
	for _, seed := range seeds {
		for _, kind := range []ControllerKind{ControllerDCM, ControllerEC2} {
			labels = append(labels, fmt.Sprintf("%d %s", seed, kind))
			cfgs = append(cfgs, ScenarioConfig{Seed: seed, Kind: kind, NoiseSigma: noise})
		}
	}
	results, err := runScenarios("multi-seed", labels, cfgs)
	if err != nil {
		return dcmS, ec2S, err
	}
	for i, res := range results {
		s := res.Summarize()
		agg := &dcmS
		if cfgs[i].Kind == ControllerEC2 {
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
