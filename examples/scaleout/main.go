// Scaleout demonstrates the paper's §II motivation — the scale-out trap of
// Fig. 2(b) — step by step: a saturated 1/1/1 system gains a second Tomcat
// at runtime. Without adapting the DB connection pools, the concurrency
// reaching MySQL doubles and throughput *drops* below the pre-scaling
// level; with the paper's soft-resource correction the same hardware
// nearly doubles throughput.
//
//	go run ./examples/scaleout
package main

import (
	"fmt"
	"os"
	"time"

	"dcm/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scaleout:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("Saturating a 1/1/1 system (default 1000/100/80 allocation) with 3000 users,")
	fmt.Println("then adding a second Tomcat at runtime...")
	fmt.Println()

	res, err := experiments.Fig2bScaleOut(42, 3000, 60*time.Second, nil)
	if err != nil {
		return err
	}

	fmt.Print(experiments.RenderFig2b(res))
	fmt.Println()

	drop := 100 * (1 - res.XAfterDefault/res.XBefore)
	gain := 100 * (res.XAfterCorrected/res.XBefore - 1)
	fmt.Printf("without soft-resource adaptation: %.0f%% throughput LOSS after adding hardware\n", drop)
	fmt.Printf("with the Fig. 2(b) correction (20 conns per Tomcat): %.0f%% gain\n", gain)
	fmt.Println()
	fmt.Println("why: the second Tomcat brings its own default 80-connection pool, so the")
	fmt.Println("maximum concurrency reaching MySQL doubles from 80 to 160 — far past the")
	fmt.Println("knee of its throughput-vs-concurrency curve (Fig. 2(a)) — and the system")
	fmt.Println("locks into MySQL's thrashing regime. This is exactly the failure mode DCM's")
	fmt.Println("APP-agent exists to prevent.")
	return nil
}
