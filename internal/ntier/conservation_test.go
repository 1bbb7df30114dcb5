package ntier

import (
	"strings"
	"testing"
	"time"

	"dcm/internal/invariant"
)

// TestCheckInvariantsConservation drives requests through the full tier
// chain with a checker attached: the sweep must stay silent on the real
// counters, then flag each corruption of the conservation ledger.
func TestCheckInvariantsConservation(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	done := 0
	for i := 0; i < 20; i++ {
		app.Inject(func(rt time.Duration, ok bool) { done++ })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	app.CheckInvariants()
	if chk.Total() != 0 {
		t.Fatalf("clean run recorded %d violation(s):\n%s",
			chk.Total(), invariant.Render(chk.Violations()))
	}

	// A phantom arrival breaks injected = dispositions + in-flight (and,
	// since the graph refactor, the entry node's visit ledger too).
	app.CorruptLedgerForTest(1)
	app.CheckInvariants()
	vs := chk.Violations()
	if len(vs) == 0 {
		t.Fatal("phantom arrival not flagged")
	}
	found := false
	for _, v := range vs {
		if v.Rule != invariant.RuleConservation {
			t.Fatalf("violation %+v, want conservation records only", v)
		}
		if strings.Contains(v.Detail, "injected") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no violation mentions the injected count: %+v", vs)
	}
	app.CorruptLedgerForTest(-1)
	seen := chk.Total()

	// A negative in-flight count is flagged on its own axis (and also
	// breaks the ledger equation).
	if err := app.CorruptNodeInFlightForTest(TierApp, -1); err != nil {
		t.Fatal(err)
	}
	app.CheckInvariants()
	found = false
	for _, v := range chk.Violations()[seen:] {
		if v.Rule == invariant.RuleConservation && strings.Contains(v.Detail, "negative") {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative in-flight not flagged: %+v", chk.Violations())
	}
}
