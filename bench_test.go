// Benchmarks regenerating every table and figure of the paper's evaluation
// (§II and §V), plus the ablations DESIGN.md calls out and micro-benchmarks
// of the hot substrate paths.
//
// Each experiment benchmark prints the rows/series the paper reports on its
// first iteration, so
//
//	go test -bench=. -benchmem ./...
//
// both measures the harness cost and emits the full reproduction report
// (captured in bench_output.txt).
package dcm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dcm/internal/experiments"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/workload"

	busPkg "dcm/internal/bus"
)

const benchSeed = 42

// printOnce guards each benchmark's report so -benchtime or reruns do not
// duplicate it.
var printOnce sync.Map

func report(key, body string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, body)
	}
}

// BenchmarkFig2aMySQLConcurrencySweep regenerates Fig. 2(a): MySQL
// throughput and latency versus request-processing concurrency 5..600.
// Expected shape: peak near N≈36–40, steep decline afterwards.
func BenchmarkFig2aMySQLConcurrencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2aMySQLSweep(benchSeed, nil, 20*time.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		report("Figure 2(a): MySQL throughput vs request processing concurrency",
			experiments.RenderFig2a(rows))
	}
}

// BenchmarkFig2bScaleOutDegradation regenerates Fig. 2(b): scaling the
// Tomcat tier 1/1/1 → 1/2/1 at runtime without soft-resource adaptation
// decreases throughput (the MySQL concurrency trap); the §II-B correction
// avoids it.
func BenchmarkFig2bScaleOutDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2bScaleOut(benchSeed, 3000, 60*time.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		report("Figure 2(b): scale-out without soft-resource adaptation",
			experiments.RenderFig2b(res))
	}
}

// BenchmarkTable1ModelTraining regenerates Table I: least-squares training
// of the concurrency-aware model for Tomcat (full-stack sweep at 1/1/1)
// and MySQL (direct stress), reporting parameters, R², N_b and X_max next
// to the paper's values.
func BenchmarkTable1ModelTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tomcat, mysql, err := experiments.Table1(benchSeed, 15*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		report("Table I: model training parameters and prediction result",
			experiments.RenderTable1(tomcat, mysql))
	}
}

// BenchmarkFig4aTomcatValidation regenerates Fig. 4(a): RUBBoS-client
// validation of the Tomcat model on 1/1/1 across five thread-pool
// allocations. Expected: 1000/20/80 (model optimum) achieves the highest
// plateau, ≈30% over the 1000/100/80 default.
func BenchmarkFig4aTomcatValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, allocs, err := experiments.Fig4a(benchSeed, nil, 20*time.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		report("Figure 4(a): model validation under 1/1/1 (throughput, req/s)",
			experiments.RenderFig4(rows, allocs))
	}
}

// BenchmarkFig4bMySQLValidation regenerates Fig. 4(b): validation of the
// MySQL model on 1/2/1 across five DB-connection-pool allocations.
// Expected: 1000/100/18 (each Tomcat gets half the MySQL optimum) wins;
// the 1000/100/80 default collapses.
func BenchmarkFig4bMySQLValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, allocs, err := experiments.Fig4b(benchSeed, nil, 20*time.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		report("Figure 4(b): model validation under 1/2/1 (throughput, req/s)",
			experiments.RenderFig4(rows, allocs))
	}
}

// fig5Results runs (once) the two §V-B scenarios shared by the Fig. 5
// benchmarks.
var (
	fig5Once sync.Once
	fig5DCM  *experiments.ScenarioResult
	fig5EC2  *experiments.ScenarioResult
	fig5Err  error
)

func fig5(b *testing.B) (*experiments.ScenarioResult, *experiments.ScenarioResult) {
	b.Helper()
	fig5Once.Do(func() {
		fig5DCM, fig5Err = experiments.RunScenario(experiments.ScenarioConfig{
			Seed: benchSeed, Kind: experiments.ControllerDCM,
		})
		if fig5Err != nil {
			return
		}
		fig5EC2, fig5Err = experiments.RunScenario(experiments.ScenarioConfig{
			Seed: benchSeed, Kind: experiments.ControllerEC2,
		})
	})
	if fig5Err != nil {
		b.Fatal(fig5Err)
	}
	return fig5DCM, fig5EC2
}

// BenchmarkFig5PerformanceComparison regenerates Fig. 5(a)(b): response
// time and throughput of DCM versus EC2-AutoScale under the
// large-variation bursty trace. Expected: DCM stays stable; EC2-AutoScale
// shows >1 s response-time spikes and throughput drops around its scaling
// activities.
func BenchmarkFig5PerformanceComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dcmRes, ec2Res := fig5(b)
		report("Figure 5(a)(b): DCM vs EC2-AutoScale under the large-variation trace",
			experiments.RenderScenarioComparison(dcmRes, ec2Res)+
				"\nDCM per-second series (every 20 s):\n"+
				experiments.RenderScenarioSeries(dcmRes, 20)+
				"\nEC2-AutoScale per-second series (every 20 s):\n"+
				experiments.RenderScenarioSeries(ec2Res, 20))
	}
}

// BenchmarkFig5TomcatScaling regenerates Fig. 5(c)(d): the Tomcat tier's
// server count and CPU utilization over time for both controllers.
func BenchmarkFig5TomcatScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dcmRes, ec2Res := fig5(b)
		report("Figure 5(c)(d): Tomcat tier scaling",
			renderTierSeries(dcmRes, ec2Res, ntier.TierApp))
	}
}

// BenchmarkFig5MySQLScaling regenerates Fig. 5(e)(f): the MySQL tier's
// server count and CPU utilization over time for both controllers.
func BenchmarkFig5MySQLScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dcmRes, ec2Res := fig5(b)
		report("Figure 5(e)(f): MySQL tier scaling",
			renderTierSeries(dcmRes, ec2Res, ntier.TierDB))
	}
}

// renderTierSeries prints one tier's count and CPU series for both runs.
func renderTierSeries(dcmRes, ec2Res *experiments.ScenarioResult, tier string) string {
	tb := metrics.NewTable("t(s)", "users",
		"DCM #", "DCM cpu", "EC2 #", "EC2 cpu")
	n := len(dcmRes.Seconds)
	if m := len(ec2Res.Seconds); m < n {
		n = m
	}
	for i := 0; i < n; i += 20 {
		tb.AddRow(
			fmt.Sprintf("%.0f", dcmRes.Seconds[i]),
			fmt.Sprintf("%d", dcmRes.Users[i]),
			fmt.Sprintf("%d", dcmRes.TierCounts[tier][i]),
			fmt.Sprintf("%.2f", dcmRes.TierCPU[tier][i]),
			fmt.Sprintf("%d", ec2Res.TierCounts[tier][i]),
			fmt.Sprintf("%.2f", ec2Res.TierCPU[tier][i]),
		)
	}
	return tb.String()
}

// BenchmarkAblationAppAgentOnly (A1): how much of DCM's stability comes
// from the APP-agent alone.
func BenchmarkAblationAppAgentOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationSoftOnly(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A1: two-level DCM vs each level alone",
			experiments.RenderScenarioComparison(results...))
	}
}

// BenchmarkAblationModelSensitivity (A2): cost of a misestimated model.
func BenchmarkAblationModelSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationModelSensitivity(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A2: sensitivity to model misestimation",
			experiments.RenderSensitivity(rows))
	}
}

// BenchmarkAblationScalePolicy (A3): "quick start, slow turn off" versus a
// symmetric scale-in trigger.
func BenchmarkAblationScalePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationScalePolicy(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A3: scale-in policy", experiments.RenderPolicyRows(rows))
	}
}

// BenchmarkAblationOnlineTraining (A5): §III-C's online re-estimation
// recovering from a deliberately wrong model.
func BenchmarkAblationOnlineTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOnlineTraining(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A5: online model re-training from a wrong model",
			experiments.RenderSensitivity(rows))
	}
}

// BenchmarkAblationPredictive (A6): reactive vs Holt-forecast scale-out.
func BenchmarkAblationPredictive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationPredictive(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A6: reactive vs predictive scale-out",
			experiments.RenderScenarioComparison(results...))
	}
}

// BenchmarkAblationBaselines (A7): DCM vs the hardware-only baseline
// ladder (threshold, target tracking, predictive).
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationBaselines(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A7: the hardware-only baseline ladder",
			experiments.RenderScenarioComparison(results...))
	}
}

// BenchmarkAblationBurstyWorkload (A8): Markov-modulated flash crowds
// instead of the ramped trace.
func BenchmarkAblationBurstyWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationBurstyWorkload(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A8: Markov-modulated burstiness injection (Mi et al.)",
			experiments.RenderScenarioComparison(results...))
	}
}

// BenchmarkAblationControlPeriod (A4): control period 5 s / 15 s / 30 s.
func BenchmarkAblationControlPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationControlPeriod(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report("Ablation A4: control period", experiments.RenderPolicyRows(rows))
	}
}

// --- Micro-benchmarks of the substrate hot paths. ---

// BenchmarkEngineSchedule measures raw event throughput of the
// discrete-event engine.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	eng.SetEventLimit(uint64(b.N) + 10)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, tick)
		}
	}
	eng.Schedule(0, tick)
	b.ResetTimer()
	if err := eng.Run(time.Duration(b.N+1) * time.Microsecond); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerRequestPath measures one simulated server's
// acquire/exec/release cycle.
func BenchmarkServerRequestPath(b *testing.B) {
	eng := sim.NewEngine()
	srv, err := server.New(eng, rng.New(1).Split("bench"), server.Config{
		Name:     "s",
		Model:    model.Params{S0: 1e-5, Alpha: 1e-7, Beta: 1e-10, Gamma: 1},
		PoolSize: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	var cycle func()
	cycle = func() {
		srv.Acquire(func(sess *server.Session) {
			sess.Exec(func() {
				sess.Release()
				done++
				if done < b.N {
					cycle()
				}
			})
		})
	}
	b.ResetTimer()
	cycle()
	if err := eng.Run(time.Duration(b.N+1) * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if done < b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

// BenchmarkEndToEndRequest measures a full 3-tier request through the
// assembled application.
func BenchmarkEndToEndRequest(b *testing.B) {
	eng := sim.NewEngine()
	app, err := ntier.New(eng, rng.New(1).Split("bench"), ntier.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	var cycle func()
	cycle = func() {
		app.Inject(func(time.Duration, bool) {
			done++
			if done < b.N {
				cycle()
			}
		})
	}
	b.ResetTimer()
	cycle()
	if err := eng.Run(time.Duration(b.N+1) * 10 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if done < b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

// BenchmarkBusPublish measures the Kafka-like log's publish path.
func BenchmarkBusPublish(b *testing.B) {
	bus := busPkg.New()
	if err := bus.CreateTopic("t", 1024); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bus.Publish("t", "k", i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoopWorkload measures the workload generator's cycle cost
// against a trivial target.
func BenchmarkClosedLoopWorkload(b *testing.B) {
	eng := sim.NewEngine()
	target := instantTarget{eng: eng}
	wl, err := workload.NewClosedLoop(eng, rng.New(1).Split("b"), target, workload.ClosedLoopConfig{
		Users:     64,
		ThinkTime: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	wl.Start()
	b.ResetTimer()
	// Run until ~b.N requests have completed (64 users, ~1ms cycle).
	horizon := time.Duration(b.N/64+2) * 2 * time.Millisecond
	if err := eng.Run(horizon); err != nil {
		b.Fatal(err)
	}
}

// instantTarget completes requests after a fixed tiny delay.
type instantTarget struct{ eng *sim.Engine }

func (t instantTarget) Inject(done func(rt time.Duration, ok bool)) {
	t.eng.Schedule(100*time.Microsecond, func() {
		if done != nil {
			done(100*time.Microsecond, true)
		}
	})
}

func (t instantTarget) InjectClass(_ int, _ uint64, done func(rt time.Duration, ok bool)) {
	t.Inject(done)
}

// BenchmarkMillionUserSmoke drives the event core to a million
// simultaneous users via the trace-driven sine ramp: one full 40-virtual-
// second run per iteration, peaking at 10⁶ live timers in the wheel. Run
// it under the profiler to see where the core spends its time at scale:
//
//	go test -bench MillionUserSmoke -benchtime 1x -cpuprofile cpu.out .
func BenchmarkMillionUserSmoke(b *testing.B) {
	var events uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMillionSmoke(experiments.MillionSmokeConfig{
			Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.PeakLive < 1_000_000 {
			b.Fatalf("peak live users = %d, want 1,000,000", res.PeakLive)
		}
		events += res.Events
		wall += res.Wall
	}
	if wall > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
	}
}

// BenchmarkFig5MultiSeed repeats the Fig. 5 comparison across five seeds
// with 10% lognormal service-time noise: the headline separation between
// DCM and EC2-AutoScale must be a property of the system, not of one
// deterministic run.
func BenchmarkFig5MultiSeed(b *testing.B) {
	seeds := []uint64{1, 2, 3, 4, 5}
	for i := 0; i < b.N; i++ {
		dcmS, ec2S, err := experiments.MultiSeedComparison(seeds, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		report("Figure 5 robustness: five seeds, 10% service-time noise",
			experiments.RenderMultiSeed(dcmS, ec2S, seeds))
	}
}
