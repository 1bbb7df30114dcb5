// Command dcmsim runs a §V-B scaling scenario — DCM or a baseline
// controller against a bursty workload trace, optionally under a fault
// schedule — and prints the Fig. 5-style time series and summary. Run with
// -h for flags; -compare adds the EC2-AutoScale baseline next to the
// chosen controller.
//
//	dcmsim -compare                          # Fig. 5 headline
//	dcmsim -chaos tomcat-crash-midramp       # bundled fault schedule (see -list)
//	dcmsim -chaos faults.json -seeds 1,2,3   # one summary row per seed
//
// The same seed always replays the same failure trace. Service-graph
// topologies (see topologies/) run through the sweep command:
// go run ./cmd/sweep -experiment graph -topology <spec>.
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcmsim:", err)
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

// loadSchedule resolves a -chaos value: a bundled schedule name first,
// then a JSON schedule file.
func loadSchedule(v string) (*chaos.Schedule, error) {
	sched, errBuiltin := chaos.Builtin(v)
	if errBuiltin == nil {
		return &sched, nil
	}
	sched, errFile := chaos.Load(v)
	if errFile != nil {
		return nil, fmt.Errorf("-chaos %q is neither bundled nor a readable schedule: %v; %v", v, errBuiltin, errFile)
	}
	return &sched, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcmsim", flag.ContinueOnError)
	var (
		controllerName = fs.String("controller", "dcm", "dcm | ec2-autoscale | target-tracking | dcm-predictive | ec2-predictive | dcm-soft-only | none")
		traceFile      = fs.String("trace", "", `trace CSV file ("seconds,users"); empty = synthetic large-variation trace`)
		seed           = fs.Uint64("seed", 42, "random seed (same seed = same failure trace)")
		period         = fs.Duration("period", 15*time.Second, "control period")
		prep           = fs.Duration("prep", 15*time.Second, "VM preparation period")
		think          = fs.Duration("think", 3*time.Second, "client think time")
		every          = fs.Int("every", 10, "print every N-th second of the series")
		compare        = fs.Bool("compare", false, "also run the ec2-autoscale baseline and print a comparison")
		csvOut         = fs.String("csv", "", "also write the per-second series to this CSV file")
		reqTrace       = fs.String("reqtrace", "", "write the request-level trace (one span event per tier hop) to this JSONL file and print the per-tier latency breakdown")
		auditOut       = fs.String("audit", "", "write the controller decision audit log to this JSONL file and print its reason-code summary")
		pprofOut       = fs.String("pprof", "", "write a CPU profile of the run to this file")
		resil          = fs.String("resilience", "off", "data-plane resilience preset: off | timeout | retries | full")
		reqTimeout     = fs.Duration("timeout", 0, "per-request deadline for the resilience presets (0 = preset default)")
		invariants     = fs.Bool("invariants", false, "run the runtime invariant checker alongside the simulation and fail on any structural-law violation (results are byte-identical)")
		chaosName      = fs.String("chaos", "", "fault schedule: a bundled name (see -list) or a JSON schedule file; prints the injection log and recovery report")
		list           = fs.Bool("list", false, "list the bundled fault schedules and exit")
		seeds          = fs.String("seeds", "", "comma-separated seed list; runs every seed concurrently and prints a summary table sorted by seed (overrides -seed)")
		parallel       = fs.Int("parallel", 0, "worker goroutines for multi-seed runs (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag-combination validation up front, so a bad invocation fails with
	// a clear message instead of a half-run or a silently ignored flag.
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	parallelSet, seedsSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "parallel":
			parallelSet = true
		case "seeds":
			seedsSet = true
		}
	})
	if parallelSet && !seedsSet {
		return fmt.Errorf("-parallel only applies to multi-seed runs: pass -seeds as well")
	}
	if seedsSet && (*reqTrace != "" || *auditOut != "" || *csvOut != "" || *compare) {
		return fmt.Errorf("-reqtrace, -audit, -csv and -compare produce single-run output: drop -seeds or those flags")
	}
	runner.SetDefaultWorkers(*parallel)

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

	stopProfile, err := startCPUProfile(*pprofOut)
	if err != nil {
		return err
	}
	defer stopProfile()

	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.ParseCSV(*traceFile, f)
		if err != nil {
			return err
		}
	}

	resCfg, err := resilience.Preset(*resil, *reqTimeout)
	if err != nil {
		return err
	}

	var sched *chaos.Schedule
	if *chaosName != "" {
		if sched, err = loadSchedule(*chaosName); err != nil {
			return err
		}
	}

	cfg := experiments.ScenarioConfig{
		Seed:          *seed,
		Kind:          experiments.ControllerKind(*controllerName),
		Trace:         tr,
		ThinkTime:     *think,
		ControlPeriod: *period,
		PrepDelay:     *prep,
		Chaos:         sched,
		CaptureTrace:  *reqTrace != "",
		Audit:         *auditOut != "",
		Resilience:    resCfg,
		Invariants:    *invariants,
	}

	if seedsSet {
		return runSeeds(cfg, *seeds, *invariants)
	}

	res, err := experiments.RunScenario(cfg)
	if err != nil {
		return err
	}

	if *reqTrace != "" {
		if err := writeRequestEvents(res, *reqTrace); err != nil {
			return err
		}
	}
	if *auditOut != "" {
		if err := writeAuditLog(res, *auditOut); err != nil {
			return err
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
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
		fmt.Printf("wrote per-second series to %s\n", *csvOut)
	}

	fmt.Printf("controller %s, trace %q (%d..%d users)\n\n",
		cfg.Kind, traceName(tr), minUsers(res.Users), maxUsers(res.Users))

	users := make([]float64, len(res.Users))
	for i, u := range res.Users {
		users[i] = float64(u)
	}
	fmt.Print(metrics.Chart("users", users, 100, 5))
	fmt.Print(metrics.Chart("throughput (req/s)", res.Throughput, 100, 5))
	fmt.Print(metrics.Chart("mean response time (s)", res.MeanRTSec, 100, 5))
	fmt.Println()
	fmt.Println(experiments.RenderScenarioSeries(res, *every))
	if res.Chaos != nil {
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
	}
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
	if res.Chaos != nil {
		fmt.Println(res.Chaos.Render())
	}

	results := []*experiments.ScenarioResult{res}
	if *compare && cfg.Kind != experiments.ControllerEC2 {
		baseCfg := cfg
		baseCfg.Kind = experiments.ControllerEC2
		base, err := experiments.RunScenario(baseCfg)
		if err != nil {
			return err
		}
		results = append(results, base)
	}
	fmt.Println(experiments.RenderScenarioComparison(results...))
	if disp := experiments.RenderDispositionSummary(results...); disp != "" {
		fmt.Println("request dispositions:")
		fmt.Println(disp)
	}
	if *invariants {
		return reportInvariants(results...)
	}
	return nil
}

// runSeeds fans cfg across the seed list on the worker pool and prints
// one summary row per seed.
func runSeeds(cfg experiments.ScenarioConfig, list string, invariants bool) error {
	seedList, err := parseSeeds(list)
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
	scenario := traceName(cfg.Trace)
	if cfg.Chaos != nil {
		scenario = cfg.Chaos.Name
	}
	fmt.Printf("controller %s under scenario %q, %d seeds\n\n", cfg.Kind, scenario, len(seedList))
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
	if invariants {
		return reportInvariants(results...)
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

// writeRequestEvents exports the run's raw span events as JSONL and prints
// the per-tier latency breakdown reconstructed from them.
func writeRequestEvents(res *experiments.ScenarioResult, path string) error {
	rt := res.RequestTracer()
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

func traceName(tr *trace.Trace) string {
	if tr == nil {
		return "large-variation (synthetic)"
	}
	return tr.Name()
}

func minUsers(users []int) int {
	if len(users) == 0 {
		return 0
	}
	m := users[0]
	for _, u := range users {
		if u < m {
			m = u
		}
	}
	return m
}

func maxUsers(users []int) int {
	m := 0
	for _, u := range users {
		if u > m {
			m = u
		}
	}
	return m
}
