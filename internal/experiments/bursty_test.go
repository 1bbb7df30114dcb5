package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"dcm/internal/resilience"
	"dcm/internal/workload"
)

// TestBurstyScenarioDigestPinned pins the Markov-modulated workload end to
// end: a DCM scenario driven by workload.BurstyLoop, once plain and once
// with client retries, must keep its exact JSON result. The retries run
// exercises the generator's retry → backoff → think path, which the plain
// run never takes.
func TestBurstyScenarioDigestPinned(t *testing.T) {
	t.Parallel()
	retries, err := resilience.Preset("retries", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		res  *resilience.Config
		want string
	}{
		{"plain", nil, "72a8065eff7e4c62a72c87159a27f88f625640d4ac4506c0f43c6f90a4874fba"},
		{"retries", retries, "13b8b6b3896c787c35381ffe9e11ff86be9690d61cfea9fd5aa6a502b4314e56"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(ScenarioConfig{
				Seed: 9,
				Kind: ControllerDCM,
				Bursty: &workload.BurstyConfig{
					Users:       1500,
					NormalThink: 12 * time.Second, SurgeThink: 2 * time.Second,
					NormalDwell: 30 * time.Second, SurgeDwell: 20 * time.Second,
				},
				Horizon:    150 * time.Second,
				Resilience: tc.res,
			})
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("bursty %s digest = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}
