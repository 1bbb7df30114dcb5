package model_test

import (
	"fmt"

	"dcm/internal/model"
	"dcm/internal/policy"
)

// ExampleTableI shows the paper's published model parameters and their
// closed-form optima.
func ExampleTableI() {
	tomcat, mysql := model.TableI()
	tN, _ := tomcat.OptimalConcurrencyInt()
	mN, _ := mysql.OptimalConcurrencyInt()
	fmt.Println("Tomcat N_b:", tN)
	fmt.Println("MySQL  N_b:", mN)
	// Output:
	// Tomcat N_b: 20
	// MySQL  N_b: 36
}

// ExamplePlanAllocation derives the soft-resource plan the APP-agent
// applies after a scale-out: with two Tomcats, each gets half of MySQL's
// optimal concurrency — Fig. 4(b)'s 1000/20/18 split.
func ExamplePlanAllocation() {
	tomcat, mysql := model.TableI()
	alloc, _, err := model.PlanAllocation(model.AllocationInput{
		Tomcat:     tomcat,
		MySQL:      mysql,
		WebServers: 1,
		AppServers: 2,
		DBServers:  1,
	}, policy.Default().Allocation)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(alloc)
	// Output:
	// 1000/20/18
}

// ExampleTrain fits the concurrency-aware model (Equation 7) to measured
// (concurrency, throughput) pairs, as §V-A does.
func ExampleTrain() {
	tomcat, _ := model.TableI()
	var obs []model.Observation
	for _, n := range []float64{1, 3, 8, 20, 50, 120, 200} {
		obs = append(obs, model.Observation{
			Concurrency: n,
			Throughput:  tomcat.Throughput(n, 1),
		})
	}
	res, err := model.Train(obs, model.TrainOptions{KnownS0: tomcat.S0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("N_b:", res.OptimalN)
	fmt.Printf("R^2: %.2f\n", res.RSquared)
	// Output:
	// N_b: 20
	// R^2: 1.00
}

// ExampleParams_ServiceTime evaluates Equation 5 directly.
func ExampleParams_ServiceTime() {
	p := model.Params{S0: 0.010, Alpha: 0.001, Beta: 1e-5, Gamma: 1}
	fmt.Printf("S*(1)  = %.1f ms\n", p.ServiceTime(1)*1000)
	fmt.Printf("S*(50) = %.1f ms\n", p.ServiceTime(50)*1000)
	nb, _ := p.OptimalConcurrencyInt()
	fmt.Println("N_b    =", nb)
	// Output:
	// S*(1)  = 10.0 ms
	// S*(50) = 83.5 ms
	// N_b    = 30
}
