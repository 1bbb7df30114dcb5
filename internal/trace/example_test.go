package trace_test

import (
	"fmt"

	"dcm/internal/trace"
)

// ExampleSynthesizeLargeVariation synthesizes the §V-B workload trace.
func ExampleSynthesizeLargeVariation() {
	tr := trace.SynthesizeLargeVariation(42)
	fmt.Println("duration:", tr.Duration())
	fmt.Println("bursty:", tr.MaxUsers() > 3*tr.UsersAt(0))
	// Output:
	// duration: 10m0s
	// bursty: true
}
