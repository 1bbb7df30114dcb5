// Package runner executes independent simulation runs concurrently.
//
// Every experiment in this repository is a batch of independent
// simulations — sweep points, seeds, controller variants — each a pure
// function of its inputs with its own engine and rng. The runner fans
// such batches across a worker pool and returns results in input order,
// so a parallel execution is byte-identical to the serial loop it
// replaces: parallelism changes wall-clock time and nothing else.
//
// Callers that need a specific worker count pass it explicitly; commands
// plumb their -parallel flag through SetDefaultWorkers, and everything
// else inherits GOMAXPROCS.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker count override (0 = use
// GOMAXPROCS). Commands set it once at startup from their -parallel flag.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the worker count used when a call passes
// workers <= 0. n <= 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves a worker-count request: n > 0 is used as given,
// otherwise the SetDefaultWorkers override, otherwise GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if v := defaultWorkers.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn over every item with up to workers goroutines and returns
// the results in input order. workers <= 0 selects the default (see
// Workers); workers == 1 runs serially on the calling goroutine with no
// goroutines spawned at all.
//
// fn must be self-contained: it receives the item index and value and
// must not share mutable state across calls. On error Map returns the
// failure with the smallest input index — exactly the error the
// equivalent serial loop would have surfaced — and discards the results.
//
// A panic in fn is recovered and reported as an error attributed to the
// offending input index: one poisoned run cannot kill the worker pool (or
// the process) for a batch of otherwise independent simulations, and the
// smallest-index error policy applies to panics and errors alike.
func Map[T, R any](items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i, item := range items {
			r, err := safeCall(fn, i, item)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = safeCall(fn, i, items[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// safeCall invokes fn(i, item), converting a panic into an error that
// names the input index it came from.
func safeCall[T, R any](fn func(i int, item T) (R, error), i int, item T) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: run %d panicked: %v", i, p)
		}
	}()
	return fn(i, item)
}
