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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
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

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "fig2a", "fig2a | fig2b | fig4a | fig4b | smoke | openloop | flashcrowd | graph")
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
		degrade    = fs.Bool("degrade", false, "arm the self-healing brownout layer for the open-loop experiments (default policy knobs)")
		topology   = fs.String("topology", "", "topology spec file for the graph experiment (empty = built-in fanout5)")
		chaos      = fs.Bool("chaos", false, "inject a mid-run replica crash and later replacement (graph experiment)")
	)
	if err := fs.Parse(args); err != nil {
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
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
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
