package experiments_test

import (
	"fmt"

	"dcm/internal/experiments"
	"dcm/internal/trace"
)

// ExampleRunScenario runs a complete DCM scenario against a bursty trace
// and summarizes its stability.
func ExampleRunScenario() {
	res, err := experiments.RunScenario(experiments.ScenarioConfig{
		Seed:  42,
		Kind:  experiments.ControllerDCM,
		Trace: trace.SynthesizeLargeVariation(42).Scale(0.5),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s := res.Summarize()
	fmt.Println("spike seconds (> 1s RT):", s.SpikeSeconds)
	fmt.Println("errors:", res.TotalErrors)
	// Output:
	// spike seconds (> 1s RT): 0
	// errors: 0
}
