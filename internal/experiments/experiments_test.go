package experiments

import (
	"strings"
	"testing"
	"time"

	"dcm/internal/controller"
	"dcm/internal/ntier"
	"dcm/internal/trace"
)

// Shorter measurement windows keep the suite fast; the benchmarks run the
// full-length versions.
const testMeasure = 8 * time.Second

func TestFig2aShape(t *testing.T) {
	t.Parallel()
	rows, err := Fig2aMySQLSweep(1, nil, testMeasure, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultFig2aConcurrencies()) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Peak must be in the paper's 30..40 region.
	best := rows[0]
	for _, r := range rows {
		if r.QueriesPerS > best.QueriesPerS {
			best = r
		}
	}
	if best.Concurrency < 30 || best.Concurrency > 40 {
		t.Fatalf("peak at N=%d, want 30..40", best.Concurrency)
	}
	// Decline beyond the peak must be significant (paper's Fig. 2(a)).
	last := rows[len(rows)-1]
	if last.Concurrency != 600 {
		t.Fatalf("last concurrency = %d", last.Concurrency)
	}
	if last.QueriesPerS > 0.5*best.QueriesPerS {
		t.Fatalf("X(600)=%v vs peak %v: decline not significant", last.QueriesPerS, best.QueriesPerS)
	}
	// Past the peak the curve declines monotonically.
	declining := rows[5:] // from N=40 on
	for i := 1; i < len(declining); i++ {
		if declining[i].QueriesPerS > declining[i-1].QueriesPerS*1.02 {
			t.Fatalf("non-monotone decline at N=%d", declining[i].Concurrency)
		}
	}
	// Latency grows superlinearly: RT(600)/RT(36) >> 600/36.
	var rt36, rt600 float64
	for _, r := range rows {
		if r.Concurrency == 36 {
			rt36 = r.MeanRTms
		}
		if r.Concurrency == 600 {
			rt600 = r.MeanRTms
		}
	}
	if rt600/rt36 < 2*600.0/36.0 {
		t.Fatalf("latency growth not superlinear: %v -> %v", rt36, rt600)
	}
}

func TestFig2bScaleOutTrap(t *testing.T) {
	t.Parallel()
	res, err := Fig2bScaleOut(1, 3000, 30*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	// §II-B: adding the second Tomcat with the default allocation makes
	// throughput *decrease*; the corrected allocation improves it a lot.
	if res.XAfterDefault >= res.XBefore {
		t.Fatalf("no trap: before=%v after-default=%v", res.XBefore, res.XAfterDefault)
	}
	if res.XAfterCorrected < 1.3*res.XBefore {
		t.Fatalf("correction ineffective: before=%v corrected=%v", res.XBefore, res.XAfterCorrected)
	}
	if res.XAfterCorrected < 2*res.XAfterDefault {
		t.Fatalf("corrected (%v) should dominate default (%v)", res.XAfterCorrected, res.XAfterDefault)
	}
	if len(res.SeriesDefault) == 0 || len(res.SeriesCorrected) == 0 {
		t.Fatal("missing series")
	}
}

func TestTable1Training(t *testing.T) {
	t.Parallel()
	tomcat, mysql, err := Table1(1, testMeasure)
	if err != nil {
		t.Fatal(err)
	}
	// Tomcat column: N_b = 20±2, R² >= 0.95 (paper: 20, 0.96).
	if tomcat.OptimalN < 18 || tomcat.OptimalN > 22 {
		t.Fatalf("tomcat N_b = %d, want ~20", tomcat.OptimalN)
	}
	if tomcat.RSquared < 0.94 {
		t.Fatalf("tomcat R2 = %v", tomcat.RSquared)
	}
	// X_max within 15%% of Table I's 946.
	if tomcat.MaxThroughput < 800 || tomcat.MaxThroughput > 1090 {
		t.Fatalf("tomcat Xmax = %v, want ~946 +/- 15%%", tomcat.MaxThroughput)
	}
	// MySQL column: exact recovery of the law (direct stress, noiseless).
	if mysql.OptimalN < 34 || mysql.OptimalN > 38 {
		t.Fatalf("mysql N_b = %d, want 36", mysql.OptimalN)
	}
	if mysql.RSquared < 0.97 {
		t.Fatalf("mysql R2 = %v (paper: 0.97)", mysql.RSquared)
	}
	// Anchored gauge recovers the paper's alpha and beta closely.
	if rel := mysql.Params.Alpha/5.04e-3 - 1; rel < -0.05 || rel > 0.05 {
		t.Fatalf("mysql alpha = %v, want ~5.04e-3", mysql.Params.Alpha)
	}
	if rel := mysql.Params.Beta/1.65e-6 - 1; rel < -0.15 || rel > 0.15 {
		t.Fatalf("mysql beta = %v, want ~1.65e-6", mysql.Params.Beta)
	}
	out := RenderTable1(tomcat, mysql)
	if !strings.Contains(out, "N_b") || !strings.Contains(out, "X_max") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestVerifyTrainedModels(t *testing.T) {
	t.Parallel()
	if _, _, err := VerifyTrainedModels(1, testMeasure); err != nil {
		t.Fatal(err)
	}
}

func TestFig4aOptimalWins(t *testing.T) {
	t.Parallel()
	rows, allocs, err := Fig4a(1, []int{2000, 3000}, testMeasure, nil)
	if err != nil {
		t.Fatal(err)
	}
	plateau := PlateauThroughput(rows)
	var optimal string
	for _, a := range allocs {
		if a.Optimal {
			optimal = a.Label
		}
	}
	for label, x := range plateau {
		if label == optimal {
			continue
		}
		if x >= plateau[optimal] {
			t.Fatalf("allocation %s (%v) beats optimal %s (%v)", label, x, optimal, plateau[optimal])
		}
	}
	// The paper reports ~30% over the default.
	gain := plateau[optimal] / plateau["1000/100/80"]
	if gain < 1.2 {
		t.Fatalf("gain over default = %.2fx, want >= 1.2x", gain)
	}
	if out := RenderFig4(rows, allocs); !strings.Contains(out, "(opt)") {
		t.Fatal("render missing optimal marker")
	}
}

func TestFig4bOptimalWins(t *testing.T) {
	t.Parallel()
	rows, allocs, err := Fig4b(1, []int{2500, 3000}, testMeasure, nil)
	if err != nil {
		t.Fatal(err)
	}
	plateau := PlateauThroughput(rows)
	var optimal string
	for _, a := range allocs {
		if a.Optimal {
			optimal = a.Label
		}
	}
	for label, x := range plateau {
		if label == optimal {
			continue
		}
		if x >= plateau[optimal] {
			t.Fatalf("allocation %s (%v) beats optimal %s (%v)", label, x, optimal, plateau[optimal])
		}
	}
	// The default (80 conns each) must be far worse at saturation.
	if plateau["1000/100/80"] > 0.6*plateau[optimal] {
		t.Fatalf("default not degraded: %v vs optimal %v", plateau["1000/100/80"], plateau[optimal])
	}
}

func TestFig4ValidationErrors(t *testing.T) {
	t.Parallel()
	if _, err := Fig4Validation(1, 0, nil, nil, 0, nil); err == nil {
		t.Fatal("zero app servers accepted")
	}
}

// shortTrace is a fast bursty trace for scenario tests.
func shortTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Synthesize(trace.SynthesisConfig{
		Name:     "short-burst",
		Duration: 180 * time.Second,
		Base:     400,
		Step:     5 * time.Second,
		Bursts: []trace.Burst{
			{Start: 40 * time.Second, Peak: 2200, Ramp: 10 * time.Second, Hold: 50 * time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestScenarioDCMBeatsEC2(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	dcm, err := RunScenario(ScenarioConfig{Seed: 7, Kind: ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ec2, err := RunScenario(ScenarioConfig{Seed: 7, Kind: ControllerEC2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sd, se := dcm.Summarize(), ec2.Summarize()
	// The headline claims of §V-B.
	if sd.MeanRTSec >= se.MeanRTSec {
		t.Fatalf("DCM mean RT %v not better than EC2 %v", sd.MeanRTSec, se.MeanRTSec)
	}
	if sd.SpikeSeconds > se.SpikeSeconds {
		t.Fatalf("DCM spikes %d vs EC2 %d", sd.SpikeSeconds, se.SpikeSeconds)
	}
	if se.SpikeSeconds == 0 {
		t.Fatal("EC2 baseline shows no spikes; burst too weak to discriminate")
	}
	if sd.TotalCompleted < se.TotalCompleted {
		t.Fatalf("DCM completed %d < EC2 %d", sd.TotalCompleted, se.TotalCompleted)
	}
	if dcm.TotalErrors != 0 {
		t.Fatalf("DCM dropped %d requests", dcm.TotalErrors)
	}
	// DCM must have actually adjusted soft resources.
	if dcm.FinalAllocation.AppThreadsPerServer == 200 {
		t.Fatal("DCM never reallocated Tomcat threads")
	}
	if ec2.FinalAllocation.AppThreadsPerServer != 200 {
		t.Fatal("EC2 touched soft resources")
	}
}

func TestScenarioSeriesConsistency(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	res, err := RunScenario(ScenarioConfig{Seed: 9, Kind: ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Seconds)
	if n == 0 {
		t.Fatal("no samples")
	}
	// The system agent is one ticker: one sample per simulated second,
	// stamped at the end of the second it covers.
	for i, s := range res.Seconds {
		if s != float64(i+1) {
			t.Fatalf("Seconds[%d] = %v, want %d", i, s, i+1)
		}
	}
	for _, series := range [][]float64{res.Throughput, res.MeanRTSec, res.P95RTSec} {
		if len(series) != n {
			t.Fatalf("series length %d != %d", len(series), n)
		}
	}
	if len(res.Users) != n {
		t.Fatalf("users length %d != %d", len(res.Users), n)
	}
	for _, tierName := range ntier.Tiers() {
		if len(res.TierCounts[tierName]) != n || len(res.TierCPU[tierName]) != n {
			t.Fatalf("tier series length mismatch for %s", tierName)
		}
		for i, c := range res.TierCounts[tierName] {
			if c < 1 {
				t.Fatalf("%s count %d at second %d", tierName, c, i)
			}
		}
		for i, u := range res.TierCPU[tierName] {
			if u < 0 || u > 1 {
				t.Fatalf("%s cpu %v at second %d", tierName, u, i)
			}
		}
	}
	// The web tier never scales.
	for _, c := range res.TierCounts[ntier.TierWeb] {
		if c != 1 {
			t.Fatal("web tier scaled")
		}
	}
	if out := RenderScenarioSeries(res, 30); !strings.Contains(out, "users") {
		t.Fatalf("series render wrong:\n%s", out)
	}
	if out := RenderScenarioComparison(res); !strings.Contains(out, string(ControllerDCM)) {
		t.Fatalf("comparison render wrong:\n%s", out)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	a, err := RunScenario(ScenarioConfig{Seed: 11, Kind: ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(ScenarioConfig{Seed: 11, Kind: ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCompleted != b.TotalCompleted {
		t.Fatalf("non-deterministic: %d vs %d", a.TotalCompleted, b.TotalCompleted)
	}
	if len(a.Actions) != len(b.Actions) {
		t.Fatalf("action logs differ: %d vs %d", len(a.Actions), len(b.Actions))
	}
}

func TestScenarioUnknownController(t *testing.T) {
	t.Parallel()
	_, err := RunScenario(ScenarioConfig{Seed: 1, Kind: "bogus"})
	if err == nil {
		t.Fatal("unknown controller accepted")
	}
}

func TestScenarioSoftOnlyAndNone(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	soft, err := RunScenario(ScenarioConfig{Seed: 13, Kind: ControllerDCMSoftOnly, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if soft.Summarize().MaxAppServers != 1 {
		t.Fatal("soft-only variant scaled VMs")
	}
	if soft.FinalAllocation.AppThreadsPerServer == 200 {
		t.Fatal("soft-only variant did not reallocate")
	}
	static, err := RunScenario(ScenarioConfig{Seed: 13, Kind: ControllerNone, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if static.Summarize().MaxAppServers != 1 {
		t.Fatal("static variant scaled VMs")
	}
	if static.FinalAllocation.AppThreadsPerServer != 200 {
		t.Fatal("static variant changed soft resources")
	}
	// Soft-resource adaptation alone must already help.
	if soft.Summarize().TotalCompleted <= static.Summarize().TotalCompleted {
		t.Fatalf("soft-only (%d) not better than static (%d)",
			soft.Summarize().TotalCompleted, static.Summarize().TotalCompleted)
	}
}

func TestScenarioControlPeriodOverride(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	res, err := RunScenario(ScenarioConfig{
		Seed: 15, Kind: ControllerDCM, Trace: tr, ControlPeriod: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5s control period: ~36 control steps in 180+30s; at least the first
	// allocation action lands before t=6s.
	if len(res.Actions) == 0 {
		t.Fatal("no actions")
	}
	if res.Actions[0].At > 6*time.Second {
		t.Fatalf("first action at %v with 5s period", res.Actions[0].At)
	}
}

func TestAblationScalePolicy(t *testing.T) {
	t.Parallel()
	rows, err := AblationScalePolicy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if out := RenderPolicyRows(rows); !strings.Contains(out, "slow turn off") {
		t.Fatalf("render wrong:\n%s", out)
	}
}

func TestAblationModelSensitivity(t *testing.T) {
	t.Parallel()
	rows, err := AblationModelSensitivity(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The perturbed optima must bracket the trained one.
	if !(rows[0].PlannedN < rows[1].PlannedN && rows[1].PlannedN < rows[2].PlannedN) {
		t.Fatalf("planned N not ordered: %d, %d, %d",
			rows[0].PlannedN, rows[1].PlannedN, rows[2].PlannedN)
	}
	if out := RenderSensitivity(rows); !strings.Contains(out, "trained model") {
		t.Fatalf("render wrong:\n%s", out)
	}
}

func TestAblationOnlineTraining(t *testing.T) {
	t.Parallel()
	rows, err := AblationOnlineTraining(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	wrongStatic, wrongOnline, right := rows[0].Summary, rows[1].Summary, rows[2].Summary
	// Online re-training must recover at least half of the completed-request
	// gap between the wrong and the right model.
	if wrongOnline.TotalCompleted < wrongStatic.TotalCompleted {
		t.Fatalf("online training hurt: %d < %d",
			wrongOnline.TotalCompleted, wrongStatic.TotalCompleted)
	}
	// The correction can only land once the first burst has produced
	// training data, so full recovery is impossible by construction;
	// require a meaningful fraction of the gap back.
	gap := int64(right.TotalCompleted) - int64(wrongStatic.TotalCompleted)
	recovered := int64(wrongOnline.TotalCompleted) - int64(wrongStatic.TotalCompleted)
	if gap > 1000 && recovered*4 < gap {
		t.Fatalf("online training recovered %d of %d gap", recovered, gap)
	}
	if wrongOnline.MeanRTSec > wrongStatic.MeanRTSec {
		t.Fatalf("online mean RT %v worse than static %v",
			wrongOnline.MeanRTSec, wrongStatic.MeanRTSec)
	}
}

func TestAblationPredictiveShape(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	run := func(kind ControllerKind) ScenarioSummary {
		res, err := RunScenario(ScenarioConfig{Seed: 21, Kind: kind, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summarize()
	}
	dcm := run(ControllerDCM)
	dcmPred := run(ControllerDCMPredictive)
	ec2 := run(ControllerEC2)
	ec2Pred := run(ControllerEC2Predictive)

	// Prediction must not hurt DCM, and it cannot rescue the
	// hardware-only baseline: EC2's spikes come from concurrency
	// misallocation, not from late hardware.
	if dcmPred.MaxRTSec > dcm.MaxRTSec*1.2 {
		t.Fatalf("predictive DCM worse: max RT %v vs %v", dcmPred.MaxRTSec, dcm.MaxRTSec)
	}
	if ec2.SpikeSeconds > 0 && ec2Pred.SpikeSeconds < ec2.SpikeSeconds/2 {
		t.Fatalf("prediction alone halved EC2 spikes (%d -> %d): concurrency misallocation should dominate",
			ec2.SpikeSeconds, ec2Pred.SpikeSeconds)
	}
}

func TestAblationBaselineLadder(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	run := func(kind ControllerKind) ScenarioSummary {
		res, err := RunScenario(ScenarioConfig{Seed: 23, Kind: kind, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summarize()
	}
	dcm := run(ControllerDCM)
	tt := run(ControllerTargetTracking)
	// However sophisticated the hardware-only policy, the concurrency
	// misallocation dominates: DCM must beat target tracking decisively.
	if dcm.MeanRTSec*5 > tt.MeanRTSec {
		t.Fatalf("DCM (%.3fs) not decisively better than target tracking (%.3fs)",
			dcm.MeanRTSec, tt.MeanRTSec)
	}
	if dcm.SpikeSeconds >= tt.SpikeSeconds && tt.SpikeSeconds > 0 {
		t.Fatalf("DCM spikes %d vs target tracking %d", dcm.SpikeSeconds, tt.SpikeSeconds)
	}
}

func TestWriteCSVExports(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	res, err := RunScenario(ScenarioConfig{Seed: 31, Kind: ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var series strings.Builder
	if err := res.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(series.String(), "\n"), "\n")
	if len(lines) != len(res.Seconds)+1 {
		t.Fatalf("csv rows = %d, want %d", len(lines), len(res.Seconds)+1)
	}
	if !strings.HasPrefix(lines[0], "t,users,throughput") {
		t.Fatalf("header = %q", lines[0])
	}
	if got := strings.Count(lines[1], ","); got != 12 {
		t.Fatalf("row has %d commas, want 12", got)
	}
}

func TestScenarioWithServletMix(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	res, err := RunScenario(ScenarioConfig{
		Seed: 27, Kind: ControllerDCM, Trace: tr, ServletMix: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summarize()
	// DCM's stability must survive heterogeneous request classes.
	if s.SpikeSeconds > 2 {
		t.Fatalf("DCM under servlet mix: %d spike seconds", s.SpikeSeconds)
	}
	if res.TotalErrors != 0 {
		t.Fatalf("errors = %d", res.TotalErrors)
	}
}

func TestAblationBurstyWorkload(t *testing.T) {
	t.Parallel()
	results, err := AblationBurstyWorkload(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	dcmS, ec2S := results[0].Summarize(), results[1].Summarize()
	// Abrupt flash crowds give no ramp warning, so even DCM shows some
	// transients — but it must remain far ahead of the baseline.
	if dcmS.MeanRTSec*2 > ec2S.MeanRTSec {
		t.Fatalf("DCM mean RT %v not well below EC2 %v", dcmS.MeanRTSec, ec2S.MeanRTSec)
	}
	if dcmS.TotalCompleted <= ec2S.TotalCompleted {
		t.Fatalf("DCM completed %d <= EC2 %d", dcmS.TotalCompleted, ec2S.TotalCompleted)
	}
	if dcmS.RequestsPerVMSecond <= ec2S.RequestsPerVMSecond {
		t.Fatalf("DCM efficiency %v <= EC2 %v",
			dcmS.RequestsPerVMSecond, ec2S.RequestsPerVMSecond)
	}
}

// TestSoakLongRun is a one-simulated-hour DCM soak under a diurnal sine
// workload: no request leaks, no drift, no controller thrashing.
func TestSoakLongRun(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tr, err := trace.SynthesizeSine("diurnal", 1200, 900, 15*time.Minute, time.Hour, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(ScenarioConfig{Seed: 33, Kind: ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summarize()
	if res.TotalErrors != 0 {
		t.Fatalf("errors = %d", res.TotalErrors)
	}
	if s.SpikeSeconds > 10 {
		t.Fatalf("spike seconds = %d over an hour", s.SpikeSeconds)
	}
	// The controller must breathe with the sine (four peaks): some scaling,
	// but not thrash (bounded action count).
	scale := 0
	for _, rec := range res.Actions {
		if rec.Action.Type != controller.ActionSetAllocation {
			scale++
		}
	}
	if scale < 4 {
		t.Fatalf("controller never scaled on a diurnal hour: %d actions", scale)
	}
	if scale > 100 {
		t.Fatalf("controller thrashing: %d scale actions", scale)
	}
	// Throughput over the final period tracks the workload (no drift).
	n := len(res.Throughput)
	lastQuarter := res.Throughput[3*n/4:]
	sum := 0.0
	for _, x := range lastQuarter {
		sum += x
	}
	if sum/float64(len(lastQuarter)) < 100 {
		t.Fatalf("throughput collapsed late in the soak: %v", sum/float64(len(lastQuarter)))
	}
}

// TestSpikeAttribution: the monitor's tier breakdown must explain
// EC2-AutoScale's response-time spikes — app-tier residence carries the
// latency during every spike, and the §V-B MySQL incidents show up as
// seconds where per-query DB residence explodes over its calm level.
func TestSpikeAttribution(t *testing.T) {
	t.Parallel()
	res, err := RunScenario(ScenarioConfig{Seed: 42, Kind: ControllerEC2})
	if err != nil {
		t.Fatal(err)
	}
	var calmDB, spikeRT, spikeApp []float64
	dbIncidents := 0
	spikes := 0
	for i, rt := range res.MeanRTSec {
		if res.Throughput[i] == 0 {
			continue
		}
		if rt > 1 {
			spikes++
			spikeRT = append(spikeRT, rt)
			spikeApp = append(spikeApp, res.AppResSec[i])
		} else if rt < 0.1 {
			calmDB = append(calmDB, res.DBResSec[i])
		}
	}
	if spikes == 0 {
		t.Fatal("no spikes in the EC2 run")
	}
	// The app tier (thread occupancy incl. queue + DB visits) must carry a
	// substantial share of the spike latency in aggregate; the remainder is
	// web-tier queueing and cohort skew between the per-second series.
	if mean(spikeApp) < 0.3*mean(spikeRT) {
		t.Fatalf("spikes unexplained: mean rt %.2fs vs app residence %.2fs",
			mean(spikeRT), mean(spikeApp))
	}
	calm := mean(calmDB)
	for i, rt := range res.MeanRTSec {
		if rt > 1 && res.DBResSec[i] > 10*calm {
			dbIncidents++
		}
	}
	// The paper's MySQL-driven incidents must be visible: several spike
	// seconds with DB residence an order of magnitude above calm. (Most
	// spike seconds are Tomcat-queue driven — the backlog persists after
	// MySQL recovers — so this is a floor, not a share.)
	if dbIncidents < 5 {
		t.Fatalf("no MySQL-attributed incidents: %d of %d spike seconds (calm db %.4fs)",
			dbIncidents, spikes, calm)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestMultiSeedSeparation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-seed comparison skipped in -short mode")
	}
	seeds := []uint64{101, 202, 303}
	dcmS, ec2S, err := MultiSeedComparison(seeds, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// DCM must beat the baseline on every single seed — no cherry-picking.
	for i := range seeds {
		if dcmS.MeanRT[i] >= ec2S.MeanRT[i] {
			t.Errorf("seed %d: DCM RT %v >= EC2 %v", seeds[i], dcmS.MeanRT[i], ec2S.MeanRT[i])
		}
		if dcmS.Spikes[i] > ec2S.Spikes[i] {
			t.Errorf("seed %d: DCM spikes %d > EC2 %d", seeds[i], dcmS.Spikes[i], ec2S.Spikes[i])
		}
		if dcmS.Completed[i] < ec2S.Completed[i] {
			t.Errorf("seed %d: DCM completed %d < EC2 %d", seeds[i], dcmS.Completed[i], ec2S.Completed[i])
		}
	}
	if _, _, err := MultiSeedComparison(nil, 0); err == nil {
		t.Error("no seeds accepted")
	}
}
