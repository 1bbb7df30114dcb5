// Command sweep runs the steady-state experiments of §II and §V-A:
//
//	sweep -experiment fig2a      MySQL throughput vs concurrency (Fig. 2(a))
//	sweep -experiment fig2b      dynamic scale-out trap (Fig. 2(b))
//	sweep -experiment fig4a      Tomcat-allocation validation (Fig. 4(a))
//	sweep -experiment fig4b      DB-connection validation (Fig. 4(b))
//	sweep -experiment smoke      million-user event-core smoke (see -peak, -trace)
//	sweep -experiment openloop   open-loop two-class saturation run (see -rate)
//	sweep -experiment flashcrowd open-loop flash-crowd spike (see -rate)
//	sweep -experiment graph      service-graph topology run (see -topology, -chaos)
//	sweep -experiment retrystorm retry-storm resilience ladder (see -degrade)
//
// Every experiment reads -seed, -parallel, -pprof and -invariants; any
// other flag it does not read is rejected rather than silently ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"dcm/internal/experiments"
	"dcm/internal/invariant"
	"dcm/internal/runner"
	"dcm/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// experimentFlags lists the flags each experiment reads beyond the
// -experiment, -seed, -parallel, -pprof and -invariants every one takes.
var experimentFlags = map[string][]string{
	"fig2a":      {"measure"},
	"fig2b":      {"users"},
	"fig4a":      {"measure"},
	"fig4b":      {"measure"},
	"smoke":      {"peak", "trace"},
	"openloop":   {"rate", "horizon", "degrade"},
	"flashcrowd": {"rate", "horizon", "degrade"},
	"graph":      {"topology", "rate", "horizon", "chaos"},
	"retrystorm": {"degrade"},
}

// checkFlags rejects an unknown experiment and any flag in set that the
// experiment does not read, so no flag is silently ignored.
func checkFlags(experiment string, set []string) error {
	own, ok := experimentFlags[experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	var stray []string
	for _, name := range set {
		switch name {
		case "experiment", "seed", "parallel", "pprof", "invariants":
		default:
			if !slices.Contains(own, name) {
				stray = append(stray, "-"+name)
			}
		}
	}
	if len(stray) > 0 {
		return fmt.Errorf("-experiment %s does not read %s", experiment, strings.Join(stray, ", "))
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "fig2a", "fig2a | fig2b | fig4a | fig4b | smoke | openloop | flashcrowd | graph | retrystorm")
		seed       = fs.Uint64("seed", 42, "random seed")
		measure    = fs.Duration("measure", 20*time.Second, "measurement window per point")
		users      = fs.Int("users", 3000, "sustained user population (fig2b)")
		parallel   = fs.Int("parallel", 0, "worker goroutines for independent runs (0 = GOMAXPROCS)")
		pprofOut   = fs.String("pprof", "", "write a CPU profile of the run to this file")
		invariants = fs.Bool("invariants", false, "run the runtime invariant checker alongside every point and fail on any structural-law violation (results are byte-identical)")
		peak       = fs.Int("peak", 1_000_000, "peak user population for the synthesized smoke trace")
		traceCSV   = fs.String("trace", "", "users-over-time CSV driving the smoke run (default: synthesized sine ramp to -peak)")
		rate       = fs.Float64("rate", 0, "base arrival rate in req/s for the open-loop experiments (0 = default)")
		horizon    = fs.Duration("horizon", 0, "virtual run length for the open-loop experiments (0 = default)")
		degrade    = fs.Bool("degrade", false, "arm the self-healing brownout layer for the open-loop experiments (default policy knobs); with retrystorm, append the self-healing rung and fail unless it detects the collapse and recovers >= 80% of pre-fault goodput")
		topology   = fs.String("topology", "", "topology spec file for the graph experiment (empty = built-in fanout5)")
		chaos      = fs.Bool("chaos", false, "inject a mid-run replica crash and later replacement (graph experiment)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlags(*experiment, set); err != nil {
		return err
	}
	runner.SetDefaultWorkers(*parallel)
	stopProfile, err := startCPUProfile(*pprofOut)
	if err != nil {
		return err
	}
	defer stopProfile()

	var chk *invariant.Checker
	if *invariants {
		chk = invariant.New()
	}

	switch *experiment {
	case "fig2a":
		rows, err := experiments.Fig2aMySQLSweep(*seed, nil, *measure, chk)
		if err != nil {
			return err
		}
		fmt.Println("Figure 2(a): MySQL performance vs request processing concurrency")
		fmt.Println()
		fmt.Print(experiments.RenderFig2a(rows))
	case "fig2b":
		res, err := experiments.Fig2bScaleOut(*seed, *users, 60*time.Second, chk)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 2(b): runtime scale-out 1/1/1 -> 1/2/1 at %d users\n\n", res.Users)
		fmt.Print(experiments.RenderFig2b(res))
		fmt.Println("\nper-second throughput around the scaling event (t-10s .. t+30s):")
		printWindow(res.SeriesDefault, res.ScaleAtSecond, "default  ")
		printWindow(res.SeriesCorrected, res.ScaleAtSecond, "corrected")
	case "fig4a":
		rows, allocs, err := experiments.Fig4a(*seed, nil, *measure, chk)
		if err != nil {
			return err
		}
		fmt.Println("Figure 4(a): validation under 1/1/1 (throughput, req/s)")
		fmt.Println()
		fmt.Print(experiments.RenderFig4(rows, allocs))
	case "fig4b":
		rows, allocs, err := experiments.Fig4b(*seed, nil, *measure, chk)
		if err != nil {
			return err
		}
		fmt.Println("Figure 4(b): validation under 1/2/1 (throughput, req/s)")
		fmt.Println()
		fmt.Print(experiments.RenderFig4(rows, allocs))
	case "smoke":
		var tr *trace.Trace
		if *traceCSV != "" {
			f, err := os.Open(*traceCSV)
			if err != nil {
				return err
			}
			tr, err = trace.ParseCSV(*traceCSV, f)
			f.Close()
			if err != nil {
				return err
			}
		}
		res, err := experiments.RunMillionSmoke(experiments.MillionSmokeConfig{
			Seed:       *seed,
			Trace:      tr,
			PeakUsers:  *peak,
			Invariants: *invariants,
		})
		if err != nil {
			return err
		}
		fmt.Println("Million-user event-core smoke: trace-driven ramp through the timer wheel")
		fmt.Println()
		fmt.Print(experiments.RenderMillionSmoke(res))
		if vs := res.InvariantViolations; len(vs) > 0 {
			fmt.Println("invariant violations:")
			fmt.Print(invariant.Render(vs))
			return fmt.Errorf("%d invariant violation(s)", len(vs))
		}
	case "openloop", "flashcrowd":
		cfg := experiments.OpenLoopConfig{
			Seed:       *seed,
			Rate:       *rate,
			Horizon:    *horizon,
			Invariants: *invariants,
			Degrade:    *degrade,
		}
		var res experiments.OpenLoopResult
		var err error
		if *experiment == "flashcrowd" {
			res, err = experiments.RunFlashCrowd(cfg)
		} else {
			res, err = experiments.RunOpenLoop(cfg)
		}
		if err != nil {
			return err
		}
		if *experiment == "flashcrowd" {
			fmt.Println("Flash crowd: open-loop trapezoid spike against the two-class mix")
		} else {
			fmt.Println("Open loop: constant-rate two-class arrivals past the closed-loop ceiling")
		}
		fmt.Println()
		fmt.Print(experiments.RenderOpenLoop(res))
		if d := res.Degrade; d != nil {
			fmt.Printf("\nself-healing: %d ticks, %d unhealthy, %d brownout episode(s), %d brownout sheds\n",
				d.Ticks, d.UnhealthyTicks, len(d.Episodes), d.BrownoutSheds)
			for _, ep := range d.Episodes {
				exit := "open at horizon"
				if ep.ExitAt > 0 {
					exit = fmt.Sprintf("exit t=%v", ep.ExitAt)
				}
				fmt.Printf("  enter t=%v  %s  (%s)\n", ep.EnterAt, exit, ep.Reason)
			}
		}
		if vs := res.InvariantViolations; len(vs) > 0 {
			fmt.Println("invariant violations:")
			fmt.Print(invariant.Render(vs))
			return fmt.Errorf("%d invariant violation(s)", len(vs))
		}
	case "graph":
		res, err := experiments.RunGraph(experiments.GraphConfig{
			Seed:        *seed,
			Topology:    *topology,
			Rate:        *rate,
			Horizon:     *horizon,
			Chaos:       *chaos,
			Controllers: true,
			Invariants:  *invariants,
		})
		if err != nil {
			return err
		}
		fmt.Println("Service graph: bursty open-loop arrivals against a DAG topology")
		fmt.Println()
		fmt.Print(experiments.RenderGraph(res))
		if vs := res.InvariantViolations; len(vs) > 0 {
			fmt.Println("invariant violations:")
			fmt.Print(invariant.Render(vs))
			return fmt.Errorf("%d invariant violation(s)", len(vs))
		}
	case "retrystorm":
		results, err := experiments.RunRetryStorm(experiments.RetryStormConfig{
			Seed: *seed, Invariants: *invariants, Degrade: *degrade,
		})
		if err != nil {
			return err
		}
		fmt.Printf("retry-storm ladder (seed %d): degraded Tomcat under closed-loop overload\n\n", *seed)
		fmt.Print(experiments.RenderRetryStorm(results))
		last := results[len(results)-1]
		if *degrade {
			fmt.Println()
			fmt.Print(experiments.RenderDegradeSummary(last))
		}
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
		if *degrade {
			if last.Degrade == nil || len(last.Degrade.Episodes) == 0 {
				return fmt.Errorf("self-healing rung detected no collapse")
			}
			if last.RecoveryRatio < 0.8 {
				return fmt.Errorf("self-healing rung recovered only %.0f%% of pre-fault goodput (want >= 80%%)",
					100*last.RecoveryRatio)
			}
		}
	}
	if chk != nil {
		if vs := chk.Violations(); len(vs) > 0 {
			fmt.Println("invariant violations:")
			fmt.Print(invariant.Render(vs))
			return fmt.Errorf("%d invariant violation(s)", chk.Total())
		}
		fmt.Println("invariants: clean (0 violations)")
	}
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

func printWindow(series []float64, at int, label string) {
	lo, hi := at-10, at+30
	if lo < 0 {
		lo = 0
	}
	if hi > len(series) {
		hi = len(series)
	}
	fmt.Printf("  %s:", label)
	for i := lo; i < hi; i++ {
		fmt.Printf(" %4.0f", series[i])
	}
	fmt.Println()
}
