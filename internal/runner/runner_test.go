package runner

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dcm/internal/rng"
	"dcm/internal/sim"
)

func TestMapPreservesInputOrder(t *testing.T) {
	t.Parallel()
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		got, err := Map(items, workers, func(i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	t.Parallel()
	got, err := Map(nil, 8, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(nil) = %v, %v", got, err)
	}
}

// TestMapErrorPolicy: the reported error is the smallest-index failure —
// the one the serial loop would have hit — regardless of workers.
func TestMapErrorPolicy(t *testing.T) {
	t.Parallel()
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	errAt := func(i int) error { return fmt.Errorf("run %d failed", i) }
	for _, workers := range []int{1, 8} {
		_, err := Map(items, workers, func(i, item int) (int, error) {
			if item >= 3 {
				return 0, errAt(item)
			}
			return item, nil
		})
		if err == nil || err.Error() != "run 3 failed" {
			t.Fatalf("workers=%d: err = %v, want run 3's error", workers, err)
		}
	}
}

// TestMapParallelMatchesSerial is the core determinism property: the
// result slice from N workers equals the serial loop's, element for
// element, when each run is a self-contained simulation.
func TestMapParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	run := func(workers int) []uint64 {
		out, err := Map(seeds, workers, func(_ int, seed uint64) (uint64, error) {
			// A miniature simulation: events draw from a seeded rng and
			// fold their fire times into a digest.
			eng := sim.NewEngine()
			rnd := rng.New(seed)
			var digest uint64
			for i := 0; i < 200; i++ {
				eng.Schedule(time.Duration(rnd.Intn(1000))*time.Millisecond, func() {
					digest = digest*31 + uint64(eng.Now())
				})
			}
			if err := eng.Run(time.Hour); err != nil {
				return 0, err
			}
			return digest, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: results differ from serial: %v vs %v", workers, got, serial)
		}
	}
}

// TestMapActuallyRunsConcurrently guards against a regression to serial
// execution: with W workers, W runs must be able to be in flight at once.
func TestMapActuallyRunsConcurrently(t *testing.T) {
	t.Parallel()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	const workers = 4
	var inFlight, peak atomic.Int64
	items := make([]int, 32)
	_, err := Map(items, workers, func(i, _ int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

func TestWorkersResolution(t *testing.T) {
	// Not parallel: mutates the process-wide default.
	defer SetDefaultWorkers(0)
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
	SetDefaultWorkers(3)
	if got := Workers(0); got != 3 {
		t.Fatalf("Workers(0) with default 3 = %d", got)
	}
	SetDefaultWorkers(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	SetDefaultWorkers(-4)
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}

// TestMapRecoversPanics: a panicking run becomes an error naming its
// input index instead of crashing the pool, and the smallest-index
// policy applies when panics and errors mix.
func TestMapRecoversPanics(t *testing.T) {
	t.Parallel()
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 8} {
		_, err := Map(items, workers, func(i, item int) (int, error) {
			if item == 6 {
				return 0, fmt.Errorf("run %d failed", item)
			}
			if item >= 4 {
				panic(fmt.Sprintf("poisoned input %d", item))
			}
			return item, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
		want := "runner: run 4 panicked: poisoned input 4"
		if err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}
