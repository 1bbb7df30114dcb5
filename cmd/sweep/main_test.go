package main

import (
	"strings"
	"testing"
)

func TestRunErrors(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-experiment", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	err := run([]string{"-experiment", "fig2a", "-rate", "500", "-chaos"})
	if err == nil || !strings.Contains(err.Error(), "-chaos, -rate") {
		t.Fatalf("fig2a with -rate and -chaos: err = %v, want both flags rejected", err)
	}
}

// TestCheckFlags: each experiment accepts the common flags plus exactly
// the ones it reads. The accepted cases include every sweep invocation
// the CI workflow runs.
func TestCheckFlags(t *testing.T) {
	t.Parallel()
	cases := []struct {
		experiment string
		set        []string
		ok         bool
	}{
		{"fig2a", []string{"experiment", "seed", "parallel", "pprof", "invariants", "measure"}, true},
		{"fig4a", []string{"measure"}, true},
		{"fig4b", []string{"measure"}, true},
		{"fig2b", []string{"users"}, true},
		{"smoke", []string{"experiment", "invariants"}, true},
		{"smoke", []string{"peak", "trace"}, true},
		{"openloop", []string{"experiment", "rate", "horizon", "invariants"}, true},
		{"flashcrowd", []string{"experiment", "invariants"}, true},
		{"flashcrowd", []string{"rate", "horizon", "degrade"}, true},
		{"graph", []string{"experiment", "chaos", "invariants"}, true},
		{"graph", []string{"experiment", "topology", "horizon", "invariants"}, true},
		{"graph", []string{"rate"}, true},
		{"retrystorm", []string{"experiment", "degrade", "invariants"}, true},
		{"retrystorm", []string{"seed", "parallel"}, true},

		{"fig2a", []string{"rate", "chaos"}, false},
		{"fig2a", []string{"users"}, false},
		{"fig2b", []string{"measure"}, false},
		{"smoke", []string{"horizon"}, false},
		{"openloop", []string{"chaos"}, false},
		{"flashcrowd", []string{"topology"}, false},
		{"graph", []string{"degrade"}, false},
		{"retrystorm", []string{"horizon"}, false},
		{"retrystorm", []string{"rate"}, false},
		{"bogus", nil, false},
	}
	for _, tc := range cases {
		err := checkFlags(tc.experiment, tc.set)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%s, %v) = %v, want ok=%v", tc.experiment, tc.set, err, tc.ok)
		}
	}
}

func TestRunFig2aShort(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-experiment", "fig2a", "-measure", "2s"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRetryStormDegrade drives the retry-storm ladder with the
// self-healing rung end to end: it fails on any invariant violation, an
// undetected collapse or a recovery below 80% of pre-fault goodput.
func TestRunRetryStormDegrade(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-experiment", "retrystorm", "-degrade", "-invariants"}); err != nil {
		t.Fatal(err)
	}
}

func TestPrintWindowBounds(t *testing.T) {
	t.Parallel()
	// Must not panic near the series edges.
	printWindow([]float64{1, 2, 3}, 0, "x")
	printWindow([]float64{1, 2, 3}, 100, "x")
	printWindow(nil, 5, "x")
}
