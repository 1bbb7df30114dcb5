package resilience

import (
	"testing"
	"time"
)

func budgetedRetrier(t *testing.T, burst float64) *Retrier {
	t.Helper()
	r, err := NewRetrier(RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: 10 * time.Millisecond,
		BudgetRatio: 0.5,
		BudgetBurst: burst,
	}, nil)
	if err != nil {
		t.Fatalf("NewRetrier: %v", err)
	}
	return r
}

// TestClassSplitReservesCriticalShare pins the starvation fix: with the
// budget split 40/60, a best-effort retry storm drains only its own
// bucket — the critical share stays fully available afterwards.
func TestClassSplitReservesCriticalShare(t *testing.T) {
	r := budgetedRetrier(t, 10)
	r.EnableClassAccounting(0.4)
	if !r.ClassAware() {
		t.Fatal("ClassAware = false after EnableClassAccounting")
	}

	// Best-effort storm: the 6-token best-effort bucket allows exactly 6.
	storm := 0
	for i := 0; i < 20; i++ {
		if r.Allow(1, false) {
			storm++
		}
	}
	if storm != 6 {
		t.Fatalf("best-effort retries allowed = %d, want 6 (its bucket share)", storm)
	}

	// The critical share was never touched: exactly 4 critical retries.
	crit := 0
	for i := 0; i < 20; i++ {
		if r.Allow(1, true) {
			crit++
		}
	}
	if crit != 4 {
		t.Fatalf("critical retries allowed = %d, want 4 (reserved share)", crit)
	}

	critDebits, beDebits := r.ClassDebits()
	if critDebits != 4 || beDebits != 6 {
		t.Fatalf("class debits = %d/%d, want 4/6", critDebits, beDebits)
	}
	if got := r.Stats(); got.Retries != 10 || got.Suppressed != 30 {
		t.Fatalf("stats = %+v, want 10 retries / 30 suppressed", got)
	}
}

// TestClassSplitRefillsPerClass pins that successes earn budget back into
// the succeeding class's own bucket, capped at that class's share.
func TestClassSplitRefillsPerClass(t *testing.T) {
	r := budgetedRetrier(t, 10)
	r.EnableClassAccounting(0.4)
	for r.Allow(1, false) {
	}
	// Two best-effort successes earn 2 * 0.5 = 1 token: one more retry.
	r.OnSuccess(false)
	r.OnSuccess(false)
	if !r.Allow(1, false) {
		t.Fatal("refilled best-effort bucket refused a retry")
	}
	if r.Allow(1, false) {
		t.Fatal("best-effort bucket allowed more than it earned")
	}
	// Critical successes must not leak into the best-effort bucket.
	r.OnSuccess(true)
	r.OnSuccess(true)
	if r.Allow(1, false) {
		t.Fatal("critical refill leaked into the best-effort bucket")
	}
	if !r.Allow(1, true) {
		t.Fatal("critical bucket lost its refill")
	}
}

// TestSharedBucketStillAuditsDebits pins the audit half of the fix: even
// before EnableClassAccounting, every shared-bucket debit is attributed
// to the class that spent it.
func TestSharedBucketStillAuditsDebits(t *testing.T) {
	r := budgetedRetrier(t, 10)
	for i := 0; i < 3; i++ {
		if !r.Allow(1, true) {
			t.Fatalf("critical retry %d refused with budget available", i)
		}
	}
	for i := 0; i < 7; i++ {
		if !r.Allow(1, false) {
			t.Fatalf("best-effort retry %d refused with budget available", i)
		}
	}
	if r.Allow(1, false) {
		t.Fatal("shared bucket exceeded its burst")
	}
	critDebits, beDebits := r.ClassDebits()
	if critDebits != 3 || beDebits != 7 {
		t.Fatalf("class debits = %d/%d, want 3/7", critDebits, beDebits)
	}
}

// TestBudgetScaleTightensAndRestores pins the brownout actuator: scaling
// clamps every bucket immediately, restoring raises caps without
// refunding, and a never-scaled retrier behaves bit-identically (scale
// 1.0 multiplication is a float no-op).
func TestBudgetScaleTightensAndRestores(t *testing.T) {
	r := budgetedRetrier(t, 10)
	r.SetBudgetScale(0.25)
	if got := r.BudgetScale(); got != 0.25 {
		t.Fatalf("BudgetScale = %v, want 0.25", got)
	}
	// Bucket clamped from 10 to 2.5 tokens: exactly 2 retries.
	n := 0
	for r.Allow(1, false) {
		n++
	}
	if n != 2 {
		t.Fatalf("retries under 0.25 scale = %d, want 2", n)
	}
	// Restore: cap back to 10, but the balance is NOT refunded.
	r.SetBudgetScale(1)
	if r.Allow(1, false) {
		t.Fatal("restore refunded tokens")
	}
	// Successes earn it back up to the full cap again.
	for i := 0; i < 4; i++ {
		r.OnSuccess(false)
	}
	n = 0
	for r.Allow(1, false) {
		n++
	}
	if n != 2 {
		t.Fatalf("retries after refill = %d, want 2", n)
	}

	// Out-of-range scales clamp to [0, 1].
	r.SetBudgetScale(-1)
	if got := r.BudgetScale(); got != 0 {
		t.Fatalf("BudgetScale after -1 = %v, want 0", got)
	}
	r.SetBudgetScale(7)
	if got := r.BudgetScale(); got != 1 {
		t.Fatalf("BudgetScale after 7 = %v, want 1", got)
	}
}

// TestClassPathsOnUnbudgetedRetrier pins that the class argument stays an
// honest no-op without a budget: retries are capped by MaxAttempts only
// and scaling changes nothing.
func TestClassPathsOnUnbudgetedRetrier(t *testing.T) {
	r, err := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetBudgetScale(0.25)
	if !r.Allow(1, false) || !r.Allow(2, true) {
		t.Fatal("unbudgeted retrier refused attempts under the cap")
	}
	if r.Allow(3, false) {
		t.Fatal("attempt cap ignored")
	}
	r.OnSuccess(true) // must not panic or mint tokens
	critDebits, beDebits := r.ClassDebits()
	if critDebits != 0 || beDebits != 0 {
		t.Fatalf("unbudgeted debits = %d/%d, want 0/0", critDebits, beDebits)
	}
}
