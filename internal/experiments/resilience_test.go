package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dcm/internal/chaos"
)

// TestResilienceDisabledIsByteIdentical pins the full marshalled
// ScenarioResult of two reference runs to the digests captured on main
// immediately before the resilience subsystem landed. The resilience
// code paths are threaded through the server, connection pool, tier graph
// and workload generator; with resilience disabled (the default), every
// run must stay byte-for-byte what it was before — same rng draw order,
// same event order, same JSON. If this test fails, a disabled-path draw
// or accounting change leaked into the baseline.
func TestResilienceDisabledIsByteIdentical(t *testing.T) {
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
			cfg:  ScenarioConfig{Seed: 1234, Kind: ControllerDCM, Chaos: &sched},
			want: "9ef5ab7150c587637a58bb1abbdb114e8b70fb557d409c77da12426be8821444",
		},
		{
			name: "plain-ec2-42",
			cfg:  ScenarioConfig{Seed: 42, Kind: ControllerEC2},
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
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result digest = %s, want %s (resilience-disabled output changed)", got, tc.want)
			}
		})
	}
}
