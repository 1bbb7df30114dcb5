package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/invariant"
	"dcm/internal/resilience"
)

// The invariant checker must be a pure observer: it draws no randomness,
// schedules no events and only reads state, so enabling it cannot change
// a single byte of any result. The tests below enforce that across the
// whole experiment surface — the Fig. 5 scenarios (pinned to the same
// sha256 digests as the plain runs), the Fig. 2/4 steady-state sweeps
// (plain vs checked JSON equality) and the retry-storm ladder — while
// also asserting every run is structurally clean.

// TestInvariantsScenarioByteIdentical reruns the pinned reference
// scenarios with the checker enabled: digests must match the plain-run
// values in TestResilienceDisabledIsByteIdentical exactly, and the runs
// must record zero violations.
func TestInvariantsScenarioByteIdentical(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  ScenarioConfig
		want string
	}{
		{
			name: "chaos-dcm-1234",
			cfg:  ScenarioConfig{Seed: 1234, Kind: ControllerDCM, Chaos: &sched, Invariants: true},
			want: "9ef5ab7150c587637a58bb1abbdb114e8b70fb557d409c77da12426be8821444",
		},
		{
			name: "plain-ec2-42",
			cfg:  ScenarioConfig{Seed: 42, Kind: ControllerEC2, Invariants: true},
			want: "7fe679ec01da5f80567c5128dbe3c5d34bb9d4bea52f324eb6a69d97c8760dc9",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireCleanResult(t, res)
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result digest = %s, want %s (invariant checking changed the output)", got, tc.want)
			}
		})
	}
}

// TestInvariantsFig2ByteIdentical compares plain vs checked Fig. 2 runs
// byte for byte.
func TestInvariantsFig2ByteIdentical(t *testing.T) {
	t.Parallel()
	t.Run("fig2a", func(t *testing.T) {
		t.Parallel()
		conc := []int{5, 36, 120}
		plain, err := Fig2aMySQLSweep(7, conc, 3*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		chk := invariant.New()
		checked, err := Fig2aMySQLSweep(7, conc, 3*time.Second, chk)
		if err != nil {
			t.Fatal(err)
		}
		requireCleanChecker(t, chk)
		requireSameJSON(t, plain, checked)
	})
	t.Run("fig2b", func(t *testing.T) {
		t.Parallel()
		plain, err := Fig2bScaleOut(7, 3000, 20*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		chk := invariant.New()
		checked, err := Fig2bScaleOut(7, 3000, 20*time.Second, chk)
		if err != nil {
			t.Fatal(err)
		}
		requireCleanChecker(t, chk)
		requireSameJSON(t, plain, checked)
	})
}

// TestInvariantsFig4ByteIdentical compares plain vs checked Fig. 4 grids
// byte for byte at the saturated user level.
func TestInvariantsFig4ByteIdentical(t *testing.T) {
	t.Parallel()
	users := []int{3000}
	t.Run("fig4a", func(t *testing.T) {
		t.Parallel()
		plain, _, err := Fig4a(7, users, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		chk := invariant.New()
		checked, _, err := Fig4a(7, users, 2*time.Second, chk)
		if err != nil {
			t.Fatal(err)
		}
		requireCleanChecker(t, chk)
		requireSameJSON(t, plain, checked)
	})
	t.Run("fig4b", func(t *testing.T) {
		t.Parallel()
		plain, _, err := Fig4b(7, users, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		chk := invariant.New()
		checked, _, err := Fig4b(7, users, 2*time.Second, chk)
		if err != nil {
			t.Fatal(err)
		}
		requireCleanChecker(t, chk)
		requireSameJSON(t, plain, checked)
	})
}

// TestInvariantsRetryStormByteIdentical compares plain vs checked runs of
// every ladder rung — the configuration that exercises deadlines, retries,
// breakers and shedding all at once — byte for byte.
func TestInvariantsRetryStormByteIdentical(t *testing.T) {
	t.Parallel()
	base := RetryStormConfig{
		Seed:       99,
		Users:      200,
		DegradeAt:  5 * time.Second,
		DegradeFor: 20 * time.Second,
		Horizon:    40 * time.Second,
	}
	for _, variant := range RetryStormVariants() {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			t.Parallel()
			plain, err := RunRetryStormVariant(base, variant)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Invariants = true
			checked, err := RunRetryStormVariant(cfg, variant)
			if err != nil {
				t.Fatal(err)
			}
			if len(checked.InvariantViolations) > 0 {
				t.Fatalf("%d invariant violation(s):\n%s",
					len(checked.InvariantViolations), invariant.Render(checked.InvariantViolations))
			}
			// A clean checked run serializes no extra fields, so the JSON
			// must match the plain run exactly.
			requireSameJSON(t, plain, checked)
		})
	}
}

// TestDispositionsConserveCompletions is the metrics-layer conservation
// law: on any resilience run, the disposition taxonomy must tally every
// request exactly once — OK dispositions equal completions, failed
// dispositions equal client-visible errors, and the total equals their
// sum. The kitchen-sink chaos schedule under the full preset exercises
// every disposition producer (timeouts, rejection, shedding, breakers,
// crashes).
func TestDispositionsConserveCompletions(t *testing.T) {
	t.Parallel()
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	resCfg, err := resilience.Preset("full", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(ScenarioConfig{
		Seed:       1234,
		Kind:       ControllerDCM,
		Chaos:      &sched,
		Resilience: resCfg,
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireCleanResult(t, res)
	if res.Dispositions == nil {
		t.Fatal("resilience run has no disposition counts")
	}
	if err := res.Dispositions.CheckConsistent(res.TotalCompleted, res.TotalErrors); err != nil {
		t.Fatal(err)
	}
	if res.Dispositions.Total() == 0 {
		t.Fatal("disposition taxonomy is empty on a full-preset chaos run")
	}
}

func requireCleanResult(t *testing.T, res *ScenarioResult) {
	t.Helper()
	if vs := res.InvariantViolations; len(vs) > 0 {
		t.Fatalf("%d invariant violation(s):\n%s", len(vs), invariant.Render(vs))
	}
}

func requireCleanChecker(t *testing.T, chk *invariant.Checker) {
	t.Helper()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("%d invariant violation(s):\n%s", chk.Total(), invariant.Render(vs))
	}
}

func requireSameJSON(t *testing.T, plain, checked any) {
	t.Helper()
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(checked)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("checked run diverged from plain run:\nplain:   %s\nchecked: %s", a, b)
	}
}
