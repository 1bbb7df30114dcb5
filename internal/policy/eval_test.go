package policy

import (
	"errors"
	"reflect"
	"testing"
)

func scalingRules() ScalingRules { return Default().Scaling }

func TestScalingEvaluatorRejectsBadRules(t *testing.T) {
	t.Parallel()
	bad := scalingRules()
	bad.MinServers = 0
	if _, err := NewScalingEvaluator(bad); err == nil {
		t.Fatal("bad rules accepted")
	}
	if _, err := NewTargetEvaluator(bad, Default().Target); err == nil {
		t.Fatal("bad rules accepted by target evaluator")
	}
}

func TestScalingEvaluatorQuickStartSlowStop(t *testing.T) {
	t.Parallel()
	e, err := NewScalingEvaluator(scalingRules())
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]TierObservation{
		"app": {Seen: true, Ready: 1, Live: 1, MeanCPU: 0.95},
		"db":  {Seen: true, Ready: 1, Live: 1, MeanCPU: 0.5},
	}
	got := e.Evaluate(hot)
	want := []Verdict{
		{Kind: VerdictScaleOut, Tier: "app", Code: CodeCPUHigh,
			Reason: "cpu 95% > 80% upper bound"},
		{Kind: VerdictHold, Tier: "db", Code: CodeSteady},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hot period verdicts = %+v, want %+v", got, want)
	}
	// Scale-in needs LowerConsecutive quiet periods: the first two hold.
	quiet := map[string]TierObservation{
		"app": {Seen: true, Ready: 2, Live: 2, MeanCPU: 0.1},
		"db":  {Seen: true, Ready: 1, Live: 1, MeanCPU: 0.5},
	}
	for i := 1; i < 3; i++ {
		vs := e.Evaluate(quiet)
		if vs[0].Code != CodeAwaitingLow {
			t.Fatalf("quiet period %d: code = %s, want %s", i, vs[0].Code, CodeAwaitingLow)
		}
	}
	vs := e.Evaluate(quiet)
	if vs[0].Kind != VerdictScaleIn || vs[0].Code != CodeCPULowSustained {
		t.Fatalf("third quiet period: %+v, want scale-in", vs[0])
	}
}

func TestScalingEvaluatorCrashAndBlackout(t *testing.T) {
	t.Parallel()
	rules := scalingRules()
	rules.MaxServers = 3
	e, err := NewScalingEvaluator(rules)
	if err != nil {
		t.Fatal(err)
	}
	obs := map[string]TierObservation{
		"app": {Seen: true, Ready: 1, Live: 2, Crashed: 2},
		"db":  {Seen: true, Ready: 1, Live: 1, NoData: true},
	}
	vs := e.Evaluate(obs)
	// MaxServers 3 with 2 live leaves room for one replacement; the second
	// is dropped with an explicit clamp hold, and the blackout tier holds.
	wantCodes := []Code{CodeCrashReprovision, CodeMaxServersClamp, CodeNoDataHold}
	if len(vs) != len(wantCodes) {
		t.Fatalf("verdicts = %+v, want codes %v", vs, wantCodes)
	}
	for i, c := range wantCodes {
		if vs[i].Code != c {
			t.Errorf("verdict %d code = %s, want %s", i, vs[i].Code, c)
		}
	}
}

func TestTargetEvaluatorSetpoint(t *testing.T) {
	t.Parallel()
	if _, err := NewTargetEvaluator(scalingRules(), TargetRules{}); !errors.Is(err, ErrBadRules) {
		t.Fatalf("zero setpoint: err = %v, want ErrBadRules", err)
	}
	e, err := NewTargetEvaluator(scalingRules(), Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	// cpu 0.9 at 2 ready → desired ceil(2·0.9/0.6) = 3 → scale out.
	obs := map[string]TierObservation{
		"app": {Seen: true, Ready: 2, Live: 2, MeanCPU: 0.9},
		"db":  {Seen: true, Ready: 1, Live: 1, MeanCPU: 0.6},
	}
	vs := e.Evaluate(obs)
	if vs[0].Kind != VerdictScaleOut || vs[0].Code != CodeTargetAbove {
		t.Fatalf("verdict = %+v, want target-above scale-out", vs[0])
	}
	if vs[1].Code != CodeSteady {
		t.Fatalf("db verdict = %+v, want steady", vs[1])
	}
	// An unseen or empty tier is held, never scaled.
	vs = e.Evaluate(map[string]TierObservation{})
	for _, v := range vs {
		if v.Code != CodeTierUnseen {
			t.Errorf("empty view verdict = %+v, want tier-unseen", v)
		}
	}
}
