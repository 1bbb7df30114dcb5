// Quickstart: build the simulated 3-tier application, drive it with a
// closed-loop RUBBoS-style workload for one simulated minute, and print
// throughput, response-time statistics and a per-tier latency breakdown.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Everything runs on a deterministic discrete-event engine: one seed,
	// one reproducible result.
	eng := sim.NewEngine()
	root := rng.New(1)

	// A 1/1/1 topology (one Apache, one Tomcat, one MySQL) with the
	// paper's default soft-resource allocation 1000/100/80.
	app, err := ntier.New(eng, root.Split("app"), ntier.DefaultConfig())
	if err != nil {
		return err
	}

	// 1500 emulated users with an exponential 3 s think time — the
	// original RUBBoS client behaviour.
	wl, err := workload.NewClosedLoop(eng, root.Split("wl"), app, workload.ClosedLoopConfig{
		Users:     1500,
		ThinkTime: 3 * time.Second,
	})
	if err != nil {
		return err
	}
	wl.Start()

	// Let the system warm up, then measure one simulated minute.
	if err := eng.Run(10 * time.Second); err != nil {
		return err
	}
	app.TakeStats()
	if err := eng.Run(70 * time.Second); err != nil {
		return err
	}
	st := app.TakeStats()

	fmt.Println("one simulated minute of a 1/1/1 system at 1500 users:")
	fmt.Printf("  throughput:     %.1f req/s\n", float64(st.Completions)/60)
	fmt.Printf("  response time:  mean %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
		st.RT.Mean*1000, st.RT.P95*1000, st.RT.P99*1000)
	fmt.Printf("  soft resources: %s (#W_T/#A_T/#A_C)\n", ntier.Allocation(app))

	// Per-tier view, the numbers a monitoring agent would report.
	for _, tierName := range ntier.Tiers() {
		for _, m := range app.Members(tierName) {
			s := m.Server().TakeSample()
			fmt.Printf("  %-6s %-7s cpu %5.1f%%  concurrency %6.1f\n",
				tierName, m.Name(), s.Utilization*100, s.MeanHeld)
		}
	}

	// Trace every request of the next five seconds and break their
	// latency down per tier.
	tr := trace.NewRequestTracer(0)
	app.SetRequestTracer(tr)
	if err := eng.Run(eng.Now() + 5*time.Second); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("every request of the next 5 s, traced:")
	fmt.Print(trace.RenderBreakdown(tr.Breakdown()))
	return nil
}
