// Modeling walks through §III end to end: sweep a tier across request
// processing concurrencies, fit the concurrency-aware model (Equation 7)
// to the measurements, inspect the fitted optimum, and turn the trained
// models into a concrete soft-resource plan for several topologies — the
// computation DCM's APP-agent performs after every scaling action.
//
//	go run ./examples/modeling
package main

import (
	"fmt"
	"os"
	"time"

	"dcm/internal/experiments"
	"dcm/internal/model"
	"dcm/internal/policy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "modeling:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("step 1: sweep the Tomcat tier (1/1/1, zero-think closed loop) and the")
	fmt.Println("        MySQL tier (direct stress), as §V-A trains the models...")
	tomcat, mysql, err := experiments.Table1(42, 10*time.Second)
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Println("step 2: the fitted concurrency-aware models (Table I):")
	fmt.Println()
	fmt.Print(experiments.RenderTable1(tomcat, mysql))

	fmt.Println()
	fmt.Println("step 3: the model's closed-form optimum N_b = sqrt((S0-alpha)/beta):")
	tomcatN, _ := tomcat.Params.OptimalConcurrencyInt()
	mysqlN, _ := mysql.Params.OptimalConcurrencyInt()
	fmt.Printf("  Tomcat: run %d concurrent requests per server\n", tomcatN)
	fmt.Printf("  MySQL:  allow %d concurrent queries per server\n", mysqlN)

	fmt.Println()
	fmt.Println("step 4: soft-resource plans (#W_T/#A_T/#A_C per server) as the topology")
	fmt.Println("        scales — what DCM's APP-agent applies after each VM change:")
	for _, topo := range []struct{ web, app, db int }{
		{1, 1, 1},
		{1, 2, 1},
		{1, 3, 2},
		{1, 4, 2},
	} {
		alloc, _, err := model.PlanAllocation(model.AllocationInput{
			Tomcat:     tomcat.Params,
			MySQL:      mysql.Params,
			WebServers: topo.web,
			AppServers: topo.app,
			DBServers:  topo.db,
		}, policy.Default().Allocation)
		if err != nil {
			return err
		}
		fmt.Printf("  %d/%d/%d  ->  %s\n", topo.web, topo.app, topo.db, alloc)
	}

	fmt.Println()
	fmt.Println("note the 1/2/1 row: each Tomcat gets half of MySQL's optimal concurrency —")
	fmt.Println("the 1000/100/18-style split Fig. 4(b) validates.")
	return nil
}
