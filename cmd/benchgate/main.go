// benchgate converts `go test -bench` output into the BENCH_engine.json
// artifact and gates it against a checked-in baseline: the CI bench job
// fails when any baselined benchmark regresses more than the tolerance
// band in ns/op, grows its allocs/op at all, allocates any bytes per op
// where its baseline allocates none, or disappears.
//
// Usage:
//
//	go test ./internal/sim/ -bench ... -benchmem -count=3 | tee bench.txt
//	go run ./cmd/benchgate -o BENCH_engine.json -baseline BENCH_engine.baseline.json bench.txt
//
// Refreshing the baseline after an intentional performance change:
//
//	go run ./cmd/benchgate -update -baseline BENCH_engine.baseline.json bench.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"dcm/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		outPath   = fs.String("o", "", "write parsed results JSON to this path")
		baseline  = fs.String("baseline", "", "baseline JSON to gate against")
		tolerance = fs.Float64("tolerance", bench.DefaultTolerance, "allowed fractional ns/op regression")
		update    = fs.Bool("update", false, "rewrite the baseline from this run instead of gating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no bench output files given")
	}
	var current bench.Suite
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		s, err := bench.ParseText(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		current.Benchmarks = append(current.Benchmarks, s.Benchmarks...)
	}
	if len(current.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %v", fs.Args())
	}
	if *outPath != "" {
		if err := bench.Save(*outPath, current); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmark results to %s\n", len(current.Benchmarks), *outPath)
	}
	if *baseline == "" {
		return nil
	}
	if *update {
		if err := bench.Save(*baseline, current); err != nil {
			return err
		}
		fmt.Fprintf(out, "baseline %s updated from this run\n", *baseline)
		return nil
	}
	base, err := bench.Load(*baseline)
	if err != nil {
		return err
	}
	deltas := bench.Compare(base, current, *tolerance)
	fmt.Fprintf(out, "benchmark trajectory vs %s (tolerance %.0f%% ns/op, 0 allocs/op, 0 B/op on 0 B/op rungs):\n",
		*baseline, *tolerance*100)
	bench.Render(out, deltas)
	if regs := bench.Regressions(deltas); len(regs) > 0 {
		for _, d := range regs {
			fmt.Fprintf(out, "FAIL %s: %s\n", d.Name, d.Reason)
		}
		return fmt.Errorf("%d benchmark(s) regressed past the gate", len(regs))
	}
	fmt.Fprintln(out, "benchmark gate passed")
	return nil
}
