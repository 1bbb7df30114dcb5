// Command whatif is a capacity-planning calculator: given a topology, a
// soft-resource allocation and a user population, it answers "what
// throughput and response time would this configuration deliver?" twice —
// analytically (exact load-dependent MVA over the calibrated tier models)
// and empirically (a steady-state discrete-event simulation) — and prints
// both side by side.
//
//	whatif -app 2 -db 1 -app-threads 20 -db-conns 18 -users 2000
//	whatif -users 2000 -json -slo 0.5        # machine-readable evaluations
//
// With -json the two methods are emitted as a JSON array of
// autotune.Evaluation objects — the same result schema the autotuner's
// portfolio runs use — so downstream tooling consumes capacity-planning
// answers and tuning scores uniformly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dcm/internal/autotune"
	"dcm/internal/experiments"
	"dcm/internal/metrics"
	"dcm/internal/mva"
	"dcm/internal/ntier"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	var (
		appServers = fs.Int("app", 1, "Tomcat servers (#A)")
		dbServers  = fs.Int("db", 1, "MySQL servers (#D)")
		appThreads = fs.Int("app-threads", 100, "Tomcat thread pool per server (#A_T)")
		dbConns    = fs.Int("db-conns", 80, "DB connections per Tomcat (#A_C)")
		users      = fs.Int("users", 1000, "concurrent users")
		think      = fs.Duration("think", 3*time.Second, "mean think time")
		measure    = fs.Duration("measure", 20*time.Second, "simulation measurement window")
		seed       = fs.Uint64("seed", 42, "random seed")
		jsonOut    = fs.Bool("json", false, "emit a JSON array of evaluations instead of the table")
		slo        = fs.Float64("slo", 0.5, "response-time objective in seconds (scored in -json output)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users < 1 || *appServers < 1 || *dbServers < 1 {
		return fmt.Errorf("users/app/db must be >= 1")
	}

	cfg := ntier.DefaultConfig()
	cfg.AppServers = *appServers
	cfg.DBServers = *dbServers
	cfg.AppThreads = *appThreads
	cfg.DBConnsPerApp = *dbConns

	m, err := experiments.SteadyState(*seed, cfg, *users, *think, 10*time.Second, *measure, nil)
	if err != nil {
		return err
	}
	simX, simRT := m.Throughput, m.RT.Mean
	mvaX, mvaRT, err := analyze(cfg, *users, *think)
	if err != nil {
		return err
	}

	if *jsonOut {
		evals := []autotune.Evaluation{
			evaluation("simulation", simX, simRT, *slo),
			evaluation("mva", mvaX, mvaRT, *slo),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(evals)
	}

	fmt.Printf("configuration %d/%d/%d at %d users, %v think:\n",
		1, *appServers, *dbServers, *users, *think)
	fmt.Printf("  soft resources: %d threads/Tomcat, %d conns/Tomcat\n\n", *appThreads, *dbConns)
	tb := metrics.NewTable("method", "throughput (req/s)", "mean RT (ms)")
	tb.AddRow("simulation", fmt.Sprintf("%.0f", simX), fmt.Sprintf("%.1f", simRT*1000))
	tb.AddRow("MVA (approximate)", fmt.Sprintf("%.0f", mvaX), fmt.Sprintf("%.1f", mvaRT*1000))
	fmt.Print(tb.String())
	fmt.Println()
	fmt.Println("note: the analytical model treats tiers as independent stations, so it")
	fmt.Println("is approximate for the full stack (Tomcat threads are held during DB")
	fmt.Println("visits); the simulation is the reference. Large disagreement usually")
	fmt.Println("means the configuration is near a thrash or saturation boundary.")
	return nil
}

// evaluation wraps one method's steady-state answer in the shared
// autotune.Evaluation schema. A steady state either meets the SLO or it
// does not, so attainment is binary; there is no controller, policy or
// server-hours dimension here.
func evaluation(source string, x, rt, slo float64) autotune.Evaluation {
	attainment := 0.0
	if rt <= slo {
		attainment = 1.0
	}
	return autotune.Evaluation{
		Source:        source,
		SLOSec:        slo,
		Attainment:    attainment,
		ThroughputRPS: x,
		MeanRTSec:     rt,
	}
}

// analyze solves the approximate closed network: web, app and db as
// load-dependent stations with the calibrated laws, the db station capped
// by the total allocated connections.
func analyze(cfg ntier.Config, users int, think time.Duration) (x float64, rt float64, err error) {
	dbCap := cfg.DBConnsPerApp * cfg.AppServers
	if perServer := dbCap / cfg.DBServers; perServer < 1 {
		dbCap = cfg.DBServers
	}
	dbService := func(j int) float64 {
		per := (j + cfg.DBServers - 1) / cfg.DBServers
		s := cfg.DBModel.ServiceTime(float64(per))
		if cfg.DBThrashKnee > 0 && per > cfg.DBThrashKnee {
			over := float64(per - cfg.DBThrashKnee)
			s += cfg.DBThrashCoef * over * over
		}
		// Allocation-borne crosstalk (see server.Config.BetaOnConfigured).
		alloc := float64(cfg.DBConnsPerApp*cfg.AppServers) / float64(cfg.DBServers)
		s += cfg.DBModel.Beta * (alloc*(alloc-1) - float64(per)*(float64(per)-1))
		return s / float64(cfg.DBServers)
	}
	appService := func(j int) float64 {
		per := (j + cfg.AppServers - 1) / cfg.AppServers
		return cfg.AppModel.ServiceTime(float64(per)) / float64(cfg.AppServers)
	}
	net := mva.Network{
		ThinkTime: think.Seconds(),
		Stations: []mva.Station{
			mva.PooledStation("web", 1, cfg.WebThreads, func(j int) float64 {
				return cfg.WebModel.ServiceTime(float64(j))
			}),
			mva.PooledStation("app", 1, cfg.AppThreads*cfg.AppServers, appService),
			mva.PooledStation("db", float64(cfg.QueriesPerRequest), dbCap, dbService),
		},
	}
	results, err := mva.Solve(net, users)
	if err != nil {
		return 0, 0, err
	}
	r := results[users-1]
	return r.Throughput, r.ResponseTime, nil
}
