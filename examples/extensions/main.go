// Extensions demonstrates the repository's three beyond-the-paper
// features working together on one run:
//
//  1. the RUBBoS servlet mix (§II-A's 24 servlets, modeled as ten weighted
//     request classes with different CPU demands and query counts);
//
//  2. online model re-training (§III-C): DCM starts from a deliberately
//     wrong Tomcat model and corrects it from live fine-grained
//     monitoring data;
//
//  3. failure injection: a Tomcat crashes mid-run and the control loop
//     heals the fleet.
//
//     go run ./examples/extensions
package main

import (
	"fmt"
	"os"
	"time"

	"dcm/internal/controller"
	"dcm/internal/core"
	"dcm/internal/experiments"
	"dcm/internal/ntier"
	"dcm/internal/policy"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "extensions:", err)
		os.Exit(1)
	}
}

func run() error {
	eng := sim.NewEngine()
	root := rng.New(11)

	// The application serves the ten-class RUBBoS-style servlet mix.
	cfg := ntier.DefaultConfig()
	cfg.Classes = ntier.DefaultServlets()
	cfg.AppThreads = 200 // Fig. 5's deliberately oversized starting pool
	cfg.DBConnsPerApp = 40
	app, err := ntier.New(eng, root.Split("app"), cfg)
	if err != nil {
		return err
	}

	// DCM starts from a wrong model (beta/16: planned optimum ~80 threads
	// instead of ~20) with online re-training enabled.
	tomcat, mysql := experiments.TrainedModels()
	wrong := tomcat
	wrong.Beta /= 16
	wrongN, _ := wrong.OptimalConcurrencyInt()
	ctrl, err := controller.NewDCM(controller.DCMConfig{
		Policy:         policy.Default().Scaling,
		TomcatModel:    wrong,
		MySQLModel:     mysql,
		OnlineTraining: true,
	})
	if err != nil {
		return err
	}
	fw, err := core.New(eng, app, ctrl, core.Config{})
	if err != nil {
		return err
	}
	if err := fw.Start(); err != nil {
		return err
	}

	tr := trace.SynthesizeLargeVariation(11)
	wl, err := workload.NewTraceDriven(eng, root.Split("wl"), app, tr, 3*time.Second, time.Second)
	if err != nil {
		return err
	}
	wl.Start()

	// Crash a Tomcat in the middle of the second burst, if one exists.
	eng.Schedule(260*time.Second, func() {
		members := app.Members(ntier.TierApp)
		if len(members) > 1 {
			victim := members[len(members)-1].Name()
			if err := app.FailMember(ntier.TierApp, victim); err == nil {
				fmt.Printf("t=260s  injected crash of %s\n", victim)
			}
		}
	})

	fmt.Printf("starting: wrong Tomcat model (planned N_b = %d, true ~20), servlet mix on,\n", wrongN)
	fmt.Println("online re-training on, crash scheduled at t=260s...")
	fmt.Println()
	if err := eng.Run(tr.Duration() + 30*time.Second); err != nil {
		return err
	}
	fw.Stop()
	wl.Stop()

	correctedT, _ := ctrl.Models()
	correctedN, _ := correctedT.OptimalConcurrencyInt()
	fmt.Printf("online-corrected Tomcat N_b: %d (started at %d, true ~20)\n", correctedN, wrongN)
	fmt.Printf("final allocation: %s\n", ntier.Allocation(app))
	fmt.Printf("completed %d requests, %d failed (the crash's in-flight losses)\n",
		app.TotalCompletions(), app.TotalErrors())
	fmt.Println()

	fmt.Println("per-servlet traffic:")
	fmt.Printf("  %-26s %12s %12s\n", "servlet", "completions", "mean RT (ms)")
	for _, st := range app.ClassStats() {
		fmt.Printf("  %-26s %12d %12.1f\n", st.Name, st.Completions, st.MeanRTms)
	}
	fmt.Println()

	fmt.Println("scaling actions:")
	for _, rec := range fw.Actions() {
		if rec.Action.Type == controller.ActionSetAllocation {
			continue
		}
		fmt.Printf("  t=%5.0fs %-10s %-4s %s\n",
			rec.At.Seconds(), rec.Action.Type, rec.Action.Tier, rec.Action.Reason)
	}
	return nil
}
