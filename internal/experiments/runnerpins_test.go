package experiments

import (
	"fmt"
	"testing"
	"time"
)

// TestRunnerDigestPins pins the marshalled results of the runner
// configurations no other digest test covers: the graph runner with its
// chaos crash, node threads ticker and checker, a second topology file,
// both open-loop curves (the flash crowd under the degrade supervisor),
// the retry-storm degrade rung, the Fig. 5 scenario under the weighted
// servlet mix, and the checked million-user smoke. The
// wall-clock fields are zeroed before hashing; everything else is a pure
// function of the configuration.
func TestRunnerDigestPins(t *testing.T) {
	t.Parallel()
	tr := shortTrace(t)
	cases := []struct {
		name string
		want string
		run  func() (any, error)
	}{
		{"graph-fanout5-chaos-controllers-invariants",
			"150de91e154dee0a9b58e4af9b476b1256d8269799f0387b2cbb842107bbdeae",
			func() (any, error) {
				r, err := RunGraph(GraphConfig{Seed: 42, Horizon: 60 * time.Second,
					Chaos: true, Controllers: true, Invariants: true})
				if err == nil && (len(r.ChaosLog) != 2 || len(r.ControllerTargets) == 0) {
					err = fmt.Errorf("chaos log %q, targets %v: want a crash, a replacement and steered nodes",
						r.ChaosLog, r.ControllerTargets)
				}
				r.Wall = 0
				return r, err
			}},
		{"graph-diamond4",
			"fd5a31d59f83d037327bae4ea82806271aebb3bcd560f2b25ec088538b15ac5d",
			func() (any, error) {
				r, err := RunGraph(GraphConfig{Seed: 42, Topology: "../../topologies/diamond4.json",
					Horizon: 60 * time.Second})
				r.Wall = 0
				return r, err
			}},
		{"openloop-constant",
			"01749679c7f315d6c45631b4fc6b0fa5fd112f9b1504582d43f93f05f3a11e24",
			func() (any, error) {
				r, err := RunOpenLoop(OpenLoopConfig{Seed: 42, Horizon: 60 * time.Second})
				r.Wall = 0
				return r, err
			}},
		{"flashcrowd-degrade",
			"e60ded1e5ba1ad55918f4bed218950a2bb7f90ab78ce32765ef470767a4d3c50",
			func() (any, error) {
				r, err := RunFlashCrowd(OpenLoopConfig{Seed: 42, Degrade: true})
				if err == nil && (r.Degrade == nil || len(r.Degrade.Episodes) == 0) {
					err = fmt.Errorf("degrade report %+v: want a brownout episode", r.Degrade)
				}
				r.Wall = 0
				return r, err
			}},
		{"retrystorm-degrade-rung",
			"7c65381c2f0130c63f35ba0212ae8f696d09c0db858ebdd1903cf9cf3cf713f4",
			func() (any, error) {
				r, err := RunRetryStormVariant(RetryStormConfig{Seed: 42,
					DegradeFor: 60 * time.Second, Horizon: 100 * time.Second}, RetryStormDegradeVariant)
				if err == nil && (r.Degrade == nil || len(r.Degrade.Episodes) == 0 || r.Retries == 0) {
					err = fmt.Errorf("degrade report %+v, %d retries: want a brownout episode and retries",
						r.Degrade, r.Retries)
				}
				return r, err
			}},
		{"scenario-servlet-mix",
			"4224c81b991f6fef6c54dcce5760a26eaa4957f749798e01a70db3dc17b658c6",
			func() (any, error) {
				r, err := RunScenario(ScenarioConfig{Seed: 27, Kind: ControllerDCM, Trace: tr,
					ServletMix: true, NoiseSigma: 0.1, Audit: true})
				if err == nil && len(r.Decisions) == 0 {
					err = fmt.Errorf("no audited decisions: want the controller's audit log")
				}
				return r, err
			}},
		{"million-smoke-invariants",
			"37f8e3feb945aff1b1ffa6a166f7b636b18badb8f95bb74fc982e013bf7ca738",
			func() (any, error) {
				r, err := RunMillionSmoke(MillionSmokeConfig{Seed: 42, PeakUsers: 20_000, Invariants: true})
				if err == nil && r.Sweeps < 2 {
					err = fmt.Errorf("%d invariant sweeps: want the ticker's and the final one", r.Sweeps)
				}
				r.Wall, r.EventsPerSec = 0, 0
				return r, err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := equivDigest(t, out); got != tc.want {
				t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}
