// Command report regenerates the paper's complete evaluation in one shot:
// it runs every experiment (Fig. 2, Table I, Fig. 4, Fig. 5) and writes a
// self-contained markdown report plus per-scenario CSV series into a
// directory.
//
//	report -o out/            # full evaluation (~10 s)
//	report -o out/ -quick     # shorter measurement windows (~3 s)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcm/internal/autotune"
	"dcm/internal/bench"
	"dcm/internal/experiments"
	"dcm/internal/resilience"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// appendAblations runs A1–A8 and appends their tables to the report.
func appendAblations(b *strings.Builder, seed uint64) error {
	b.WriteString("## Ablations\n\n")

	a1, err := experiments.AblationSoftOnly(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A1: two-level DCM vs each level alone\n\n```\n")
	b.WriteString(experiments.RenderScenarioComparison(a1...))
	b.WriteString("```\n\n")

	a2, err := experiments.AblationModelSensitivity(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A2: model misestimation\n\n```\n")
	b.WriteString(experiments.RenderSensitivity(a2))
	b.WriteString("```\n\n")

	a3, err := experiments.AblationScalePolicy(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A3: scale-in policy\n\n```\n")
	b.WriteString(experiments.RenderPolicyRows(a3))
	b.WriteString("```\n\n")

	a4, err := experiments.AblationControlPeriod(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A4: control period\n\n```\n")
	b.WriteString(experiments.RenderPolicyRows(a4))
	b.WriteString("```\n\n")

	a5, err := experiments.AblationOnlineTraining(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A5: online model re-training\n\n```\n")
	b.WriteString(experiments.RenderSensitivity(a5))
	b.WriteString("```\n\n")

	a6, err := experiments.AblationPredictive(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A6: reactive vs predictive scale-out\n\n```\n")
	b.WriteString(experiments.RenderScenarioComparison(a6...))
	b.WriteString("```\n\n")

	a7, err := experiments.AblationBaselines(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A7: hardware-only baseline ladder\n\n```\n")
	b.WriteString(experiments.RenderScenarioComparison(a7...))
	b.WriteString("```\n\n")

	a8, err := experiments.AblationBurstyWorkload(seed)
	if err != nil {
		return err
	}
	b.WriteString("### A8: Markov-modulated burstiness injection\n\n```\n")
	b.WriteString(experiments.RenderScenarioComparison(a8...))
	b.WriteString("```\n\n")
	return nil
}

// appendResilience runs the data-plane resilience evaluation: the Fig. 5
// scenario per controller under the "full" preset with the request
// disposition taxonomy (timed-out / rejected / shed / retries per
// success), and the retry-storm ladder showing goodput recovery under a
// degraded-server fault.
func appendResilience(b *strings.Builder, seed uint64) error {
	res, err := resilience.Preset("full", 0)
	if err != nil {
		return err
	}
	var results []*experiments.ScenarioResult
	for _, kind := range []experiments.ControllerKind{
		experiments.ControllerDCM,
		experiments.ControllerEC2,
	} {
		r, err := experiments.RunScenario(experiments.ScenarioConfig{
			Seed: seed, Kind: kind, Resilience: res,
		})
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	storm, err := experiments.RunRetryStorm(experiments.RetryStormConfig{Seed: seed})
	if err != nil {
		return err
	}
	b.WriteString(resilienceSection(results, storm))
	return nil
}

// appendDegradation runs the self-healing overload-control evaluation:
// the degrade rung of the retry-storm ladder (default calibrated knobs)
// and the flash crowd with the brownout layer armed, rendered as the
// Degradation section.
func appendDegradation(b *strings.Builder, seed uint64) error {
	storm, err := experiments.RunRetryStormVariant(
		experiments.RetryStormConfig{Seed: seed, Degrade: true},
		experiments.RetryStormDegradeVariant,
	)
	if err != nil {
		return err
	}
	fc, err := experiments.RunFlashCrowd(experiments.OpenLoopConfig{Seed: seed, Degrade: true})
	if err != nil {
		return err
	}
	b.WriteString(degradationSection(storm, &fc))
	return nil
}

// appendTopology runs the service-graph experiment — the built-in fanout5
// DAG with chaos, per-node controllers and invariants armed — and appends
// the topology section.
func appendTopology(b *strings.Builder, seed uint64) error {
	res, err := experiments.RunGraph(experiments.GraphConfig{
		Seed:        seed,
		Rate:        80,
		Horizon:     40 * time.Second,
		Chaos:       true,
		Controllers: true,
		Invariants:  true,
	})
	if err != nil {
		return err
	}
	if len(res.InvariantViolations) > 0 {
		return fmt.Errorf("graph run recorded %d invariant violation(s)",
			len(res.InvariantViolations))
	}
	b.WriteString(topologySection(res))
	return nil
}

// loadAutotuneReport reads a cmd/autotune JSON report, rejecting files
// that do not match the report schema.
func loadAutotuneReport(path string) (*autotune.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep autotune.Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("autotune report %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("autotune report %s: unexpected data after the report object", path)
	}
	return &rep, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		outDir     = fs.String("o", "report-out", "output directory")
		seed       = fs.Uint64("seed", 42, "random seed")
		quick      = fs.Bool("quick", false, "shorter measurement windows")
		full       = fs.Bool("full", false, "also run the A1-A8 ablations")
		autotuneIn = fs.String("autotune", "", "render this cmd/autotune JSON report as a Pareto section")
		benchIn    = fs.String("bench", "", "render this BENCH_engine.json as a performance-trajectory section")
		benchBase  = fs.String("bench-baseline", "BENCH_engine.baseline.json", "baseline for the -bench trajectory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	measure := 20 * time.Second
	train := 15 * time.Second
	if *quick {
		measure = 6 * time.Second
		train = 6 * time.Second
	}

	var b strings.Builder
	b.WriteString("# DCM reproduction report\n\n")
	fmt.Fprintf(&b, "Seed %d. Generated by `cmd/report`.\n\n", *seed)

	fmt.Println("running Fig. 2(a)...")
	fig2a, err := experiments.Fig2aMySQLSweep(*seed, nil, measure, nil)
	if err != nil {
		return err
	}
	b.WriteString("## Figure 2(a): MySQL throughput vs concurrency\n\n```\n")
	b.WriteString(experiments.RenderFig2a(fig2a))
	b.WriteString("```\n\n")

	fmt.Println("running Fig. 2(b)...")
	fig2b, err := experiments.Fig2bScaleOut(*seed, 3000, measure*3, nil)
	if err != nil {
		return err
	}
	b.WriteString("## Figure 2(b): runtime scale-out without soft-resource adaptation\n\n```\n")
	b.WriteString(experiments.RenderFig2b(fig2b))
	b.WriteString("```\n\n")

	fmt.Println("running Table I training...")
	tomcat, mysql, err := experiments.Table1(*seed, train)
	if err != nil {
		return err
	}
	b.WriteString("## Table I: model training\n\n```\n")
	b.WriteString(experiments.RenderTable1(tomcat, mysql))
	b.WriteString("```\n\n")

	fmt.Println("running Fig. 4(a)...")
	rows4a, allocs4a, err := experiments.Fig4a(*seed, nil, measure, nil)
	if err != nil {
		return err
	}
	b.WriteString("## Figure 4(a): Tomcat model validation (1/1/1)\n\n```\n")
	b.WriteString(experiments.RenderFig4(rows4a, allocs4a))
	b.WriteString("```\n\n")

	fmt.Println("running Fig. 4(b)...")
	rows4b, allocs4b, err := experiments.Fig4b(*seed, nil, measure, nil)
	if err != nil {
		return err
	}
	b.WriteString("## Figure 4(b): MySQL model validation (1/2/1)\n\n```\n")
	b.WriteString(experiments.RenderFig4(rows4b, allocs4b))
	b.WriteString("```\n\n")

	fmt.Println("running Fig. 5 scenarios...")
	var results []*experiments.ScenarioResult
	for _, kind := range []experiments.ControllerKind{
		experiments.ControllerDCM,
		experiments.ControllerEC2,
	} {
		res, err := experiments.RunScenario(experiments.ScenarioConfig{
			Seed: *seed, Kind: kind, CaptureTrace: true, Audit: true,
		})
		if err != nil {
			return err
		}
		results = append(results, res)
		csvPath := filepath.Join(*outDir, fmt.Sprintf("fig5-%s.csv", kind))
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := res.WriteSeriesCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	b.WriteString(fig5Section(results...))
	for _, res := range results {
		b.WriteString(scenarioDetailSection(res))
	}

	fmt.Println("running resilience experiments...")
	if err := appendResilience(&b, *seed); err != nil {
		return err
	}

	fmt.Println("running degradation experiments...")
	if err := appendDegradation(&b, *seed); err != nil {
		return err
	}

	fmt.Println("running service-graph topology...")
	if err := appendTopology(&b, *seed); err != nil {
		return err
	}

	if *full {
		fmt.Println("running ablations...")
		if err := appendAblations(&b, *seed); err != nil {
			return err
		}
	}

	if *autotuneIn != "" {
		rep, err := loadAutotuneReport(*autotuneIn)
		if err != nil {
			return err
		}
		b.WriteString(autotuneSection(rep))
	}

	if *benchIn != "" {
		current, err := bench.Load(*benchIn)
		if err != nil {
			return err
		}
		baseline, err := bench.Load(*benchBase)
		if err != nil {
			return err
		}
		b.WriteString(benchSection(baseline, current, *benchBase))
	}

	path := filepath.Join(*outDir, "report.md")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (and per-scenario CSVs) to %s\n", path, *outDir)
	return nil
}
