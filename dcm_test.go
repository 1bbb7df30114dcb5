package dcm

import (
	"testing"
	"time"

	"dcm/internal/controller"
	"dcm/internal/experiments"
	"dcm/internal/model"
	"dcm/internal/policy"
	"dcm/internal/trace"
)

// The tests in this file check the library's main entry points from the
// module root, one paper result each: Table I's optima, Fig. 4(b)'s
// allocation, the §V-A fit, the §V-B trace, policy and scenario.

func TestTableIFacade(t *testing.T) {
	t.Parallel()
	tomcat, mysql := model.TableI()
	if nb, ok := tomcat.OptimalConcurrencyInt(); !ok || nb != 20 {
		t.Fatalf("tomcat N_b = %d", nb)
	}
	if nb, ok := mysql.OptimalConcurrencyInt(); !ok || nb != 36 {
		t.Fatalf("mysql N_b = %d", nb)
	}
}

func TestPlanAllocationFacade(t *testing.T) {
	t.Parallel()
	tomcat, mysql := model.TableI()
	alloc, _, err := model.PlanAllocation(model.AllocationInput{
		Tomcat: tomcat, MySQL: mysql,
		WebServers: 1, AppServers: 2, DBServers: 1,
	}, policy.Default().Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.String() != "1000/20/18" {
		t.Fatalf("allocation = %s", alloc)
	}
}

func TestTrainFacade(t *testing.T) {
	t.Parallel()
	tomcat, _ := model.TableI()
	var obs []model.Observation
	for _, n := range []float64{1, 5, 10, 20, 40, 80, 160} {
		obs = append(obs, model.Observation{Concurrency: n, Throughput: tomcat.Throughput(n, 1)})
	}
	res, err := model.Train(obs, model.TrainOptions{KnownS0: tomcat.S0})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalN != 20 {
		t.Fatalf("N_b = %d", res.OptimalN)
	}
}

func TestLargeVariationTraceFacade(t *testing.T) {
	t.Parallel()
	tr := trace.SynthesizeLargeVariation(1)
	if tr.Duration() != 600*time.Second {
		t.Fatalf("duration = %v", tr.Duration())
	}
}

// TestRunScenarioFacade is the root-level end-to-end check: the scenario
// entry point runs a complete DCM scenario.
func TestRunScenarioFacade(t *testing.T) {
	t.Parallel()
	tr := trace.SynthesizeLargeVariation(2).Scale(0.5)
	res, err := experiments.RunScenario(experiments.ScenarioConfig{Seed: 2, Kind: experiments.ControllerDCM, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCompleted == 0 {
		t.Fatal("no requests completed")
	}
	if res.Summarize().SpikeSeconds > 5 {
		t.Fatalf("DCM run unstable: %d spike seconds", res.Summarize().SpikeSeconds)
	}
}

func TestDefaultPolicyFacade(t *testing.T) {
	t.Parallel()
	p := controller.DefaultPolicy()
	if p.UpperCPU != 0.80 || p.LowerCPU != 0.40 || p.LowerConsecutive != 3 {
		t.Fatalf("policy = %+v", p)
	}
}
