package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"dcm/internal/controller"
)

// TestDegradeDisabledIsByteIdentical pins the marshalled results of a
// retry-storm ladder run and a flash-crowd run — both with the degrade
// layer off, its default — to the digests captured immediately before
// the self-healing subsystem landed. The degrade plumbing touches the
// retrier, the servers' admission caps, the class bookkeeping and the
// workload generators; with the layer disabled none of it may shift a
// single rng draw, event, counter or JSON byte.
func TestDegradeDisabledIsByteIdentical(t *testing.T) {
	t.Parallel()
	t.Run("retrystorm", func(t *testing.T) {
		t.Parallel()
		storm, err := RunRetryStorm(RetryStormConfig{
			Seed: 42, Users: 200,
			DegradeAt: 5 * time.Second, DegradeFor: 20 * time.Second,
			Horizon: 40 * time.Second, Invariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(storm)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		const want = "0e7d3ba12a86ea71633926cd2e3c582c4ad2974a32c882a45f17d31aff713e97"
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("retry-storm digest = %s, want %s (degrade-disabled output changed)", got, want)
		}
	})
	t.Run("flashcrowd", func(t *testing.T) {
		t.Parallel()
		fc, err := RunFlashCrowd(OpenLoopConfig{
			Seed: 7, Rate: 100, Horizon: 60 * time.Second, Invariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fc.Wall = 0
		data, err := json.Marshal(fc)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		const want = "52c97ace00603b66c49890d50ab1998314b439359f6ddb354930ad5544455337"
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("flash-crowd digest = %s, want %s (degrade-disabled output changed)", got, want)
		}
	})
}

// TestRetryStormDegradeDetectsAndRecovers is the acceptance regression
// for the self-healing rung: riding on the metastable retries preset,
// the detectors must call the collapse only after the fault hits (the
// warmup suppresses the startup transient), brownout must actually shed,
// hysteresis must both enter and exit, the audit trail must carry the
// brownout reason codes, and tail goodput must recover to at least 80%
// of the pre-fault steady state — all with a clean invariant sweep.
func TestRetryStormDegradeDetectsAndRecovers(t *testing.T) {
	t.Parallel()
	cfg := RetryStormConfig{Invariants: true, Degrade: true}
	r, err := RunRetryStormVariant(cfg, RetryStormDegradeVariant)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.InvariantViolations) != 0 {
		t.Fatalf("invariant violations: %+v", r.InvariantViolations)
	}
	if r.Degrade == nil {
		t.Fatal("degrade report missing")
	}
	if len(r.Degrade.Episodes) == 0 {
		t.Fatal("no brownout episode: the collapse went undetected")
	}
	first := r.Degrade.Episodes[0]
	if first.EnterAt <= 20*time.Second {
		t.Errorf("brownout entered at %v, before the fault at 20s (startup false positive)", first.EnterAt)
	}
	if first.ExitAt == 0 {
		t.Errorf("first episode never exited: hysteresis restore did not happen")
	}
	if first.Reason == "" {
		t.Error("episode carries no detector reason")
	}
	if r.Degrade.BrownoutSheds == 0 {
		t.Error("brownout shed nothing")
	}
	if r.RecoveryRatio < 0.8 {
		t.Errorf("recovery ratio = %.3f (pre %.1f/s, tail %.1f/s), want >= 0.8",
			r.RecoveryRatio, r.PreFaultGoodputPS, r.TailGoodputPS)
	}
	if want := uint64(140); r.Degrade.Ticks != want {
		t.Errorf("detector ticks = %d, want %d (1 s period over the horizon)", r.Degrade.Ticks, want)
	}
	codes := map[controller.ReasonCode]int{}
	for _, c := range r.AuditCodes {
		codes[c.Code] = c.Count
	}
	if codes[controller.CodeBrownoutEnter] == 0 || codes[controller.CodeBrownoutExit] == 0 {
		t.Errorf("audit codes = %v, want brownout-enter and brownout-exit", r.AuditCodes)
	}
	if codes[controller.CodeBrownoutEnter] != len(r.Degrade.Episodes) {
		t.Errorf("audit enter count %d != episodes %d",
			codes[controller.CodeBrownoutEnter], len(r.Degrade.Episodes))
	}
}

// TestRetryStormLadderAppendsDegradeRung pins that the Degrade flag only
// appends: the classic three rungs run first, in order, untouched.
func TestRetryStormLadderAppendsDegradeRung(t *testing.T) {
	t.Parallel()
	cfg := RetryStormConfig{
		Seed: 42, Users: 200,
		DegradeAt: 5 * time.Second, DegradeFor: 20 * time.Second,
		Horizon: 40 * time.Second, Degrade: true,
	}
	results, err := RunRetryStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"none", "retries", "full", RetryStormDegradeVariant}
	if len(results) != len(wantOrder) {
		t.Fatalf("got %d rungs, want %d", len(results), len(wantOrder))
	}
	for i, want := range wantOrder {
		if results[i].Variant != want {
			t.Errorf("rung %d = %q, want %q", i, results[i].Variant, want)
		}
	}
	for _, r := range results[:3] {
		if r.Degrade != nil || r.RecoveryRatio != 0 || r.AuditCodes != nil {
			t.Errorf("classic rung %q carries degrade extras", r.Variant)
		}
	}
	if results[3].Degrade == nil {
		t.Error("degrade rung carries no report")
	}
}

// TestFlashCrowdDegradeShedsOnlyBasic pins the brownout's class
// discrimination under an open-loop flash crowd: the episode spans the
// crowd, every brownout shed lands on the best-effort class, and the
// priority class is never front-door shed.
func TestFlashCrowdDegradeShedsOnlyBasic(t *testing.T) {
	t.Parallel()
	fc, err := RunFlashCrowd(OpenLoopConfig{Invariants: true, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.InvariantViolations) != 0 {
		t.Fatalf("invariant violations: %+v", fc.InvariantViolations)
	}
	if fc.Degrade == nil || len(fc.Degrade.Episodes) == 0 {
		t.Fatal("flash crowd produced no brownout episode")
	}
	ep := fc.Degrade.Episodes[0]
	if ep.EnterAt <= 60*time.Second {
		t.Errorf("brownout entered at %v, before the crowd at 60s", ep.EnterAt)
	}
	if ep.ExitAt == 0 {
		t.Error("episode never exited after the crowd receded")
	}
	if fc.Degrade.BrownoutSheds == 0 {
		t.Fatal("brownout shed nothing under a 6x flash crowd")
	}
	var premium, basic *struct {
		bshed    uint64
		injected uint64
	}
	for _, c := range fc.Classes {
		v := &struct {
			bshed    uint64
			injected uint64
		}{c.BrownoutShed, c.Injected}
		switch c.Name {
		case "premium":
			premium = v
		case "basic":
			basic = v
		}
	}
	if premium == nil || basic == nil {
		t.Fatalf("class stats incomplete: %+v", fc.Classes)
	}
	if premium.bshed != 0 {
		t.Errorf("premium class was brownout-shed %d times; priority classes are exempt", premium.bshed)
	}
	if basic.bshed == 0 {
		t.Error("basic class absorbed no brownout sheds")
	}
	if basic.bshed != fc.Degrade.BrownoutSheds {
		t.Errorf("class shed sum %d != total %d", basic.bshed, fc.Degrade.BrownoutSheds)
	}
}
