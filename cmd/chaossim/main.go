// Command chaossim runs a §V-B scaling scenario under fault injection and
// prints the recovery report next to the usual Fig. 5-style series. Pick a
// bundled scenario with -scenario (see -list) or supply a JSON schedule
// with -file; the same seed always replays the same failure trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/experiments"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/runner"
	"dcm/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaossim:", err)
		os.Exit(1)
	}
}

// parseSeeds parses a comma-separated uint64 list and returns it sorted
// ascending, so the summary table reads in seed order whatever order the
// user typed.
func parseSeeds(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("chaossim", flag.ContinueOnError)
	var (
		scenarioName   = fs.String("scenario", "tomcat-crash-midramp", "bundled scenario name (see -list)")
		scenarioFile   = fs.String("file", "", "JSON fault-schedule file (overrides -scenario)")
		controllerName = fs.String("controller", "dcm", "dcm | ec2-autoscale | target-tracking | dcm-predictive | ec2-predictive | dcm-soft-only | none")
		seed           = fs.Uint64("seed", 42, "random seed (same seed = same failure trace)")
		period         = fs.Duration("period", 15*time.Second, "control period")
		prep           = fs.Duration("prep", 15*time.Second, "VM preparation period")
		every          = fs.Int("every", 20, "print every N-th second of the series")
		list           = fs.Bool("list", false, "list bundled scenarios and exit")
		seeds          = fs.String("seeds", "", "comma-separated seed list; runs every seed concurrently and prints a summary table sorted by seed (overrides -seed)")
		parallel       = fs.Int("parallel", 0, "worker goroutines for multi-seed runs (0 = GOMAXPROCS)")
		reqTrace       = fs.String("trace", "", "write the request-level trace to this JSONL file and print the per-tier latency breakdown (single-seed runs only)")
		auditOut       = fs.String("audit", "", "write the controller decision audit log to this JSONL file and print its reason-code summary (single-seed runs only)")
		pprofOut       = fs.String("pprof", "", "write a CPU profile of the run to this file")
		resil          = fs.String("resilience", "off", "data-plane resilience preset: off | timeout | retries | full")
		reqTimeout     = fs.Duration("timeout", 0, "per-request deadline for the resilience presets (0 = preset default)")
		retryStorm     = fs.Bool("retrystorm", false, "run the retry-storm resilience ladder (none vs retries vs full) under a degraded-server fault instead of a scaling scenario")
		degradeArm     = fs.Bool("degrade", false, "with -retrystorm: append the self-healing rung (online detectors + brownout) and fail unless it detects the collapse and recovers >= 80% of pre-fault goodput")
		invariants     = fs.Bool("invariants", false, "run the runtime invariant checker alongside the simulation and fail on any structural-law violation (results are byte-identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag-combination validation up front, so a bad invocation fails with
	// a clear message instead of a half-run or a silently ignored flag.
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	parallelSet, seedsSet, fileSet := false, false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "parallel":
			parallelSet = true
		case "seeds":
			seedsSet = true
		case "file":
			fileSet = true
		}
	})
	if seedsSet && *seeds == "" {
		return fmt.Errorf("-seeds needs at least one seed")
	}
	// An explicitly empty -file (an unset variable in a script) must not
	// fall through to the bundled default scenario.
	if fileSet && *scenarioFile == "" {
		return fmt.Errorf("-file needs a scenario path")
	}
	if parallelSet && *seeds == "" {
		return fmt.Errorf("-parallel only applies to multi-seed runs: pass -seeds as well")
	}
	if *seeds != "" && (*reqTrace != "" || *auditOut != "") {
		return fmt.Errorf("-trace and -audit produce single-run detail output: drop -seeds or the detail flags")
	}
	if *retryStorm && (*seeds != "" || *reqTrace != "" || *auditOut != "") {
		return fmt.Errorf("-retrystorm is a self-contained experiment: drop -seeds, -trace and -audit")
	}
	if *degradeArm && !*retryStorm {
		return fmt.Errorf("-degrade extends the retry-storm ladder: pass -retrystorm as well")
	}
	runner.SetDefaultWorkers(*parallel)

	stopProfile, err := startCPUProfile(*pprofOut)
	if err != nil {
		return err
	}
	defer stopProfile()

	// Retry-storm mode: the bundled metastable-failure experiment. It runs
	// its own fixed topology and degraded-server fault, so the scenario and
	// controller flags do not apply.
	if *retryStorm {
		stormCfg := experiments.RetryStormConfig{
			Seed: *seed, Timeout: *reqTimeout,
			Invariants: *invariants, Degrade: *degradeArm,
		}
		results, err := experiments.RunRetryStorm(stormCfg)
		if err != nil {
			return err
		}
		fmt.Printf("retry-storm ladder (seed %d): degraded Tomcat under closed-loop overload\n\n", *seed)
		fmt.Print(experiments.RenderRetryStorm(results))
		if *degradeArm {
			last := results[len(results)-1]
			fmt.Println()
			fmt.Print(experiments.RenderDegradeSummary(last))
		}
		if *invariants {
			bad := 0
			for _, r := range results {
				if len(r.InvariantViolations) > 0 {
					bad += len(r.InvariantViolations)
					fmt.Printf("invariant violations (%s):\n%s", r.Variant, invariant.Render(r.InvariantViolations))
				}
			}
			if bad > 0 {
				return fmt.Errorf("%d invariant violation(s)", bad)
			}
			fmt.Println("invariants: clean (0 violations)")
		}
		if *degradeArm {
			last := results[len(results)-1]
			if last.Degrade == nil || len(last.Degrade.Episodes) == 0 {
				return fmt.Errorf("self-healing rung detected no collapse")
			}
			if last.RecoveryRatio < 0.8 {
				return fmt.Errorf("self-healing rung recovered only %.0f%% of pre-fault goodput (want >= 80%%)",
					100*last.RecoveryRatio)
			}
		}
		return nil
	}

	resCfg, err := resilience.Preset(*resil, *reqTimeout)
	if err != nil {
		return err
	}

	if *list {
		for _, name := range chaos.BuiltinNames() {
			s, _ := chaos.Builtin(name)
			fmt.Printf("%-22s %d fault(s)\n", name, len(s.Faults))
			for _, f := range s.Faults {
				fmt.Printf("    %s\n", f)
			}
		}
		return nil
	}

	var sched chaos.Schedule
	if *scenarioFile != "" {
		sched, err = chaos.Load(*scenarioFile)
	} else {
		sched, err = chaos.Builtin(*scenarioName)
	}
	if err != nil {
		return err
	}

	cfg := experiments.ScenarioConfig{
		Seed:          *seed,
		Kind:          experiments.ControllerKind(*controllerName),
		ControlPeriod: *period,
		PrepDelay:     *prep,
		Chaos:         &sched,
		CaptureTrace:  *reqTrace != "",
		Audit:         *auditOut != "",
		Resilience:    resCfg,
		Invariants:    *invariants,
	}

	// Multi-seed mode: fan the seeds across the worker pool and print one
	// summary row per seed; the detailed single-run report below stays the
	// default for a lone seed.
	if *seeds != "" {
		seedList, err := parseSeeds(*seeds)
		if err != nil {
			return err
		}
		results, err := runner.Map(seedList, 0, func(_ int, s uint64) (*experiments.ScenarioResult, error) {
			c := cfg
			c.Seed = s
			return experiments.RunScenario(c)
		})
		if err != nil {
			return err
		}
		fmt.Printf("controller %s under scenario %q, %d seeds\n\n", cfg.Kind, sched.Name, len(seedList))
		tb := metrics.NewTable("seed", "mean RT (s)", "max RT (s)", "spikes >1s", "completed", "errors", "recovered")
		for i, res := range results {
			sum := res.Summarize()
			recovered := "-"
			if res.Chaos != nil {
				n := 0
				for _, fr := range res.Chaos.Faults {
					if fr.Recovered {
						n++
					}
				}
				recovered = fmt.Sprintf("%d/%d", n, len(res.Chaos.Faults))
			}
			tb.AddRow(strconv.FormatUint(seedList[i], 10),
				fmt.Sprintf("%.3f", sum.MeanRTSec), fmt.Sprintf("%.3f", sum.MaxRTSec),
				strconv.Itoa(sum.SpikeSeconds), strconv.FormatUint(sum.TotalCompleted, 10),
				strconv.FormatUint(res.TotalErrors, 10), recovered)
		}
		fmt.Print(tb.String())
		if *invariants {
			return reportInvariants(results...)
		}
		return nil
	}

	res, err := experiments.RunScenario(cfg)
	if err != nil {
		return err
	}

	if *reqTrace != "" {
		if err := writeRequestTrace(res, *reqTrace); err != nil {
			return err
		}
	}
	if *auditOut != "" {
		if err := writeAuditLog(res, *auditOut); err != nil {
			return err
		}
	}

	fmt.Printf("controller %s under scenario %q (seed %d)\n\n", cfg.Kind, sched.Name, *seed)
	fmt.Print(metrics.Chart("throughput (req/s)", res.Throughput, 100, 5))
	fmt.Print(metrics.Chart("mean response time (s)", res.MeanRTSec, 100, 5))
	fmt.Println()
	fmt.Println(experiments.RenderScenarioSeries(res, *every))

	fmt.Println("injections:")
	for _, inj := range res.Chaos.Injections {
		status := ""
		if inj.Skipped {
			status = "  SKIPPED"
		}
		fmt.Printf("  t=%6.0fs %-18s %-10s %s%s\n",
			inj.At.Seconds(), inj.Kind, inj.Target, inj.Detail, status)
	}
	fmt.Println()
	fmt.Println("scaling actions:")
	for _, rec := range res.Actions {
		status := ""
		if rec.Err != "" {
			status = "  ERROR: " + rec.Err
		}
		fmt.Printf("  t=%6.0fs %-14s %-4s [%s] %s%s\n",
			rec.At.Seconds(), rec.Action.Type, rec.Action.Tier, rec.Action.Code,
			rec.Action.Reason, status)
	}
	fmt.Println()
	fmt.Println(res.Chaos.Render())
	if disp := experiments.RenderDispositionSummary(res); disp != "" {
		fmt.Println("request dispositions:")
		fmt.Println(disp)
	}
	if *invariants {
		return reportInvariants(res)
	}
	return nil
}

// reportInvariants prints the invariant-checker verdict for each result
// and returns an error if any run recorded structural-law violations.
func reportInvariants(results ...*experiments.ScenarioResult) error {
	bad := 0
	for _, r := range results {
		if len(r.InvariantViolations) > 0 {
			bad += len(r.InvariantViolations)
			fmt.Printf("invariant violations (%s):\n%s", r.Kind, invariant.Render(r.InvariantViolations))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d invariant violation(s)", bad)
	}
	fmt.Println("invariants: clean (0 violations)")
	return nil
}

// startCPUProfile begins a CPU profile written to path and returns the
// stop function (a no-op for an empty path).
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeRequestTrace exports the run's raw span events as JSONL and prints
// the per-tier latency breakdown reconstructed from them.
func writeRequestTrace(res *experiments.ScenarioResult, path string) error {
	rt := res.RequestTrace()
	if rt == nil {
		return fmt.Errorf("no request trace captured")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rt.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d trace events to %s (%d dropped)\n\n", rt.Len(), path, rt.Dropped())
	fmt.Print(trace.RenderBreakdown(res.LatencyBreakdown))
	fmt.Println()
	fmt.Println("per-tier histograms:")
	fmt.Print(experiments.RenderTierLatency(res))
	fmt.Println()
	return nil
}

// writeAuditLog exports the controller decision log as JSONL and prints
// its reason-code summary.
func writeAuditLog(res *experiments.ScenarioResult, path string) error {
	log := res.DecisionLog()
	if log == nil {
		return fmt.Errorf("controller does not support decision auditing")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d audited decisions to %s\n\n", log.Len(), path)
	fmt.Print(log.RenderSummary())
	fmt.Println()
	return nil
}
