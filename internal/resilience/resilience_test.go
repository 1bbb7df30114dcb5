package resilience

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/rng"
)

func TestConfigEnabledAndValidate(t *testing.T) {
	t.Parallel()
	var zero Config
	if zero.Enabled() {
		t.Error("zero config reports enabled")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	on := Config{RequestTimeout: time.Second}
	if !on.Enabled() {
		t.Error("timeout config reports disabled")
	}
	bad := []Config{
		{RequestTimeout: -1},
		{SLA: -1},
		{MaxQueue: -1},
		{MaxPoolWaiters: -1},
		{CoDelTarget: -1},
		{Retry: RetryPolicy{MaxAttempts: -1}},
		{Retry: RetryPolicy{MaxAttempts: 3}}, // zero backoff
		{Breaker: BreakerConfig{FailureRate: 2}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestConfigGoodputSLA(t *testing.T) {
	t.Parallel()
	if got := (Config{}).GoodputSLA(); got != 0 {
		t.Errorf("zero config SLA = %v", got)
	}
	if got := (Config{RequestTimeout: 2 * time.Second}).GoodputSLA(); got != 2*time.Second {
		t.Errorf("timeout fallback = %v", got)
	}
	if got := (Config{RequestTimeout: 2 * time.Second, SLA: time.Second}).GoodputSLA(); got != time.Second {
		t.Errorf("explicit SLA = %v", got)
	}
}

func TestPresetLadder(t *testing.T) {
	t.Parallel()
	if cfg, err := Preset("off", 0); err != nil || cfg != nil {
		t.Fatalf("off preset = %v, %v", cfg, err)
	}
	for _, name := range []string{"timeout", "retries", "full"} {
		cfg, err := Preset(name, time.Second)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if cfg == nil || !cfg.Enabled() {
			t.Fatalf("preset %q not enabled", name)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
		if cfg.RequestTimeout != time.Second {
			t.Errorf("preset %q timeout = %v", name, cfg.RequestTimeout)
		}
	}
	retries, _ := Preset("retries", time.Second)
	full, _ := Preset("full", time.Second)
	if retries.Breaker.Enabled() || retries.MaxQueue != 0 {
		t.Error("retries preset has protective features on")
	}
	if !full.Breaker.Enabled() || full.MaxQueue == 0 || full.CoDelTarget == 0 {
		t.Error("full preset missing protective features")
	}
	if _, err := Preset("nope", 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown preset err = %v", err)
	}
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	t.Parallel()
	b := NewBreaker(BreakerConfig{FailureRate: 0.5, MinSamples: 10, Cooldown: 5 * time.Second})
	now := time.Duration(0)
	// Nine failures: below MinSamples, must stay closed.
	for i := 0; i < 9; i++ {
		if !b.Attempt(now) {
			t.Fatal("closed breaker refused attempt")
		}
		b.Record(now, false)
		now += 10 * time.Millisecond
	}
	if b.State() != StateClosed {
		t.Fatalf("state = %v before MinSamples", b.State())
	}
	b.Attempt(now)
	b.Record(now, false)
	if b.State() != StateOpen {
		t.Fatalf("state = %v after 10 failures", b.State())
	}
	if b.Opened() != 1 {
		t.Errorf("opened = %d", b.Opened())
	}
	// Open: refuses until cooldown.
	if b.Attempt(now + time.Second) {
		t.Error("open breaker admitted attempt during cooldown")
	}
	if b.Ready(now + time.Second) {
		t.Error("open breaker ready during cooldown")
	}
}

func TestBreakerHalfOpenProbing(t *testing.T) {
	t.Parallel()
	cfg := BreakerConfig{FailureRate: 0.5, MinSamples: 4, Cooldown: time.Second,
		HalfOpenProbes: 1, CloseAfter: 2}
	trip := func() (*Breaker, time.Duration) {
		b := NewBreaker(cfg)
		now := time.Duration(0)
		for i := 0; i < 4; i++ {
			b.Attempt(now)
			b.Record(now, false)
		}
		if b.State() != StateOpen {
			t.Fatalf("state = %v after failures", b.State())
		}
		return b, now + cfg.Cooldown
	}

	// Probe failure re-opens.
	b, now := trip()
	if !b.Attempt(now) {
		t.Fatal("cooled-down breaker refused probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v after probe admit", b.State())
	}
	// Only one concurrent probe.
	if b.Attempt(now) {
		t.Error("second concurrent probe admitted")
	}
	b.Record(now, false)
	if b.State() != StateOpen {
		t.Fatalf("state = %v after failed probe", b.State())
	}

	// CloseAfter consecutive successes close it.
	b, now = trip()
	for i := 0; i < 2; i++ {
		if !b.Attempt(now) {
			t.Fatalf("probe %d refused", i)
		}
		b.Record(now, true)
		now += 10 * time.Millisecond
	}
	if b.State() != StateClosed {
		t.Fatalf("state = %v after successful probes", b.State())
	}
}

func TestBreakerWindowAgesOut(t *testing.T) {
	t.Parallel()
	b := NewBreaker(BreakerConfig{FailureRate: 0.5, MinSamples: 4,
		Window: 8 * time.Second, Buckets: 8})
	// Three early failures...
	for i := 0; i < 3; i++ {
		b.Attempt(0)
		b.Record(0, false)
	}
	// ...fully aged out of the window: fresh successes plus one failure must
	// not trip the breaker (3 old failures would have).
	now := 20 * time.Second
	for i := 0; i < 3; i++ {
		b.Attempt(now)
		b.Record(now, true)
	}
	b.Attempt(now)
	b.Record(now, false)
	if b.State() != StateClosed {
		t.Fatalf("state = %v: aged-out failures still counted", b.State())
	}
}

func TestBreakerDisabledAlwaysAllows(t *testing.T) {
	t.Parallel()
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 100; i++ {
		if !b.Attempt(0) || !b.Ready(0) {
			t.Fatal("disabled breaker refused")
		}
		b.Record(0, false)
	}
	if b.State() != StateClosed {
		t.Fatalf("disabled breaker state = %v", b.State())
	}
}

func TestRetrierBackoffAndCap(t *testing.T) {
	t.Parallel()
	r, err := NewRetrier(RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond,
		MaxBackoff: 300 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		300 * time.Millisecond, 300 * time.Millisecond}
	for i, w := range want {
		if got := r.Backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Attempt cap: 3 retries allowed after the first attempt.
	for attempts := 1; attempts < 4; attempts++ {
		if !r.Allow(attempts, false) {
			t.Errorf("retry after %d attempts refused", attempts)
		}
	}
	if r.Allow(4, false) {
		t.Error("retry past MaxAttempts allowed")
	}
	st := r.Stats()
	if st.Retries != 3 || st.Suppressed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetrierJitterDeterministic(t *testing.T) {
	t.Parallel()
	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, Jitter: 0.5}
	draw := func() []time.Duration {
		r, err := NewRetrier(pol, rng.New(7).Split("retry"))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = r.Backoff(1)
		}
		return out
	}
	a, b := draw(), draw()
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed backoffs differ at %d: %v vs %v", i, a[i], b[i])
		}
		lo, hi := 50*time.Millisecond, 150*time.Millisecond
		if a[i] < lo || a[i] > hi {
			t.Errorf("backoff %v outside jitter range [%v, %v]", a[i], lo, hi)
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("jittered backoffs never varied")
	}
}

func TestRetrierBudget(t *testing.T) {
	t.Parallel()
	r, err := NewRetrier(RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Millisecond,
		BudgetRatio: 0.5, BudgetBurst: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 2 tokens, then empty.
	if !r.Allow(1, false) || !r.Allow(1, false) {
		t.Fatal("burst tokens refused")
	}
	if r.Allow(1, false) {
		t.Fatal("retry allowed with empty budget")
	}
	// Two successes earn one token back.
	r.OnSuccess(false)
	r.OnSuccess(false)
	if !r.Allow(1, false) {
		t.Fatal("earned token refused")
	}
	if r.Allow(1, false) {
		t.Fatal("budget over-granted")
	}
	st := r.Stats()
	if st.Retries != 3 || st.Suppressed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCoDelShedsStandingDelayOnly(t *testing.T) {
	t.Parallel()
	c := NewCoDel(100*time.Millisecond, time.Second)
	if !c.Enabled() {
		t.Fatal("codel disabled")
	}
	now := time.Duration(0)
	// Short sojourns: never shed.
	for i := 0; i < 10; i++ {
		if c.OnDequeue(now, now-50*time.Millisecond) {
			t.Fatal("shed below target")
		}
		now += 100 * time.Millisecond
	}
	// Sojourn above target, but not yet for a full interval: no shed.
	if c.OnDequeue(now, now-200*time.Millisecond) {
		t.Fatal("shed on first above-target dequeue")
	}
	if c.OnDequeue(now+500*time.Millisecond, now-200*time.Millisecond) {
		t.Fatal("shed before a full interval above target")
	}
	// A full interval above target: shed one...
	if !c.OnDequeue(now+time.Second, now-200*time.Millisecond) {
		t.Fatal("no shed after a full interval above target")
	}
	// ...but not the very next dequeue (one per interval).
	if c.OnDequeue(now+time.Second, now-200*time.Millisecond) {
		t.Fatal("shed twice in one interval")
	}
	// Recovery resets the state.
	if c.OnDequeue(now+2*time.Second, now+2*time.Second-time.Millisecond) {
		t.Fatal("shed a fast dequeue")
	}
	if c.OnDequeue(now+3*time.Second, now) {
		t.Fatal("shed immediately after recovery")
	}

	var off *CoDel
	if off.Enabled() || off.OnDequeue(0, -time.Hour) {
		t.Error("nil codel shed")
	}
	if NewCoDel(0, 0).Enabled() {
		t.Error("zero-target codel enabled")
	}
}
