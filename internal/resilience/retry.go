package resilience

import (
	"fmt"
	"time"

	"dcm/internal/rng"
)

// RetryPolicy parameterizes client-side retries. The zero value disables
// retrying (Enabled reports false).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values <= 1 disable retries.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff (default 10x BaseBackoff).
	BaseBackoff time.Duration `json:"baseBackoff,omitempty"`
	MaxBackoff  time.Duration `json:"maxBackoff,omitempty"`
	// Jitter spreads each backoff uniformly over ±Jitter fraction of its
	// nominal value (0.2 = ±20%), drawn from the retrier's rng split so
	// runs stay seed-reproducible.
	Jitter float64 `json:"jitter,omitempty"`
	// BudgetRatio enables the retry budget: a token bucket earning
	// BudgetRatio tokens per successful request, capped at BudgetBurst
	// (default 10); each retry costs one token and retries are suppressed
	// when the bucket is empty. The budget is what keeps transient
	// failures retryable without letting a persistent overload turn into a
	// retry storm. Zero disables the budget (unlimited retries up to
	// MaxAttempts).
	BudgetRatio float64 `json:"budgetRatio,omitempty"`
	BudgetBurst float64 `json:"budgetBurst,omitempty"`
}

// Enabled reports whether retries are on.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Validate rejects nonsensical retry policies.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("%w: negative max attempts", ErrBadConfig)
	}
	if p.BaseBackoff < 0 || p.MaxBackoff < 0 {
		return fmt.Errorf("%w: negative backoff", ErrBadConfig)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("%w: retry jitter %v outside [0, 1]", ErrBadConfig, p.Jitter)
	}
	if p.BudgetRatio < 0 || p.BudgetBurst < 0 {
		return fmt.Errorf("%w: negative retry budget", ErrBadConfig)
	}
	if p.Enabled() && p.BaseBackoff == 0 {
		return fmt.Errorf("%w: retries enabled with zero base backoff", ErrBadConfig)
	}
	return nil
}

// RetryStats is the retrier's lifetime accounting.
type RetryStats struct {
	// Retries is the number of retry attempts issued; Suppressed counts
	// retries the budget or attempt cap refused.
	Retries    uint64 `json:"retries"`
	Suppressed uint64 `json:"suppressed,omitempty"`
}

// Retrier applies a RetryPolicy for one workload generator: it decides
// whether a failed attempt may retry (consuming budget), computes the
// jittered backoff, and earns budget back on successes. Deterministic
// given its rng split; single-goroutine.
type Retrier struct {
	pol    RetryPolicy
	rnd    *rng.Rand
	tokens float64
	stats  RetryStats
	// scale is the brownout budget multiplier (1 = nominal). It shrinks
	// the bucket's effective burst cap; multiplying by exactly 1.0 is a
	// float no-op, so an untouched retrier is bit-identical to one that
	// never heard of scaling.
	scale float64
	// classAware splits the budget into critical/best-effort sub-buckets
	// so a storm of best-effort retries cannot starve the critical
	// classes' share (and vice versa). Debits are audited per class even
	// when the shared bucket is in force.
	classAware bool
	critShare  float64
	critTokens float64
	beTokens   float64
	critDebits uint64
	beDebits   uint64
}

// NewRetrier builds a retrier. rnd must be a dedicated split (may be nil
// only when the policy has zero jitter).
func NewRetrier(pol RetryPolicy, rnd *rng.Rand) (*Retrier, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if pol.Jitter > 0 && rnd == nil {
		return nil, fmt.Errorf("%w: jitter without rng", ErrBadConfig)
	}
	if pol.MaxBackoff <= 0 {
		pol.MaxBackoff = 10 * pol.BaseBackoff
	}
	if pol.BudgetRatio > 0 && pol.BudgetBurst <= 0 {
		pol.BudgetBurst = 10
	}
	return &Retrier{pol: pol, rnd: rnd, tokens: pol.BudgetBurst, scale: 1}, nil
}

// Stats returns the lifetime retry accounting.
func (r *Retrier) Stats() RetryStats { return r.stats }

// Allow reports whether a request that has already made `attempts`
// attempts may retry, consuming one budget token on success. Suppressed
// retries (cap or budget) are counted. critical names the request's class
// for the budget: the token comes from the shared bucket, or, once
// EnableClassAccounting has split the budget, from the critical or the
// best-effort bucket. Either way the debit is audited per class.
func (r *Retrier) Allow(attempts int, critical bool) bool {
	if !r.pol.Enabled() || attempts < 1 {
		return false
	}
	if attempts >= r.pol.MaxAttempts {
		r.stats.Suppressed++
		return false
	}
	if r.pol.BudgetRatio > 0 {
		bucket, _ := r.bucket(critical)
		if *bucket < 1 {
			r.stats.Suppressed++
			return false
		}
		*bucket--
		if critical {
			r.critDebits++
		} else {
			r.beDebits++
		}
	}
	r.stats.Retries++
	return true
}

// Backoff returns the jittered delay before retry number `retry` (1 is
// the first retry): BaseBackoff·2^(retry−1) capped at MaxBackoff, spread
// over ±Jitter.
func (r *Retrier) Backoff(retry int) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := r.pol.BaseBackoff
	for i := 1; i < retry && d < r.pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	if r.pol.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + r.pol.Jitter*(2*r.rnd.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// OnSuccess earns retry budget back for one successful request, into the
// bucket Allow would debit for the same class, capped at that bucket's
// (possibly brownout-scaled) capacity.
func (r *Retrier) OnSuccess(critical bool) {
	if r.pol.BudgetRatio <= 0 {
		return
	}
	bucket, cap := r.bucket(critical)
	*bucket += r.pol.BudgetRatio
	if *bucket > cap {
		*bucket = cap
	}
}

// bucket is the token bucket a request of the given class draws on, and
// its capacity: the shared bucket until EnableClassAccounting splits it.
func (r *Retrier) bucket(critical bool) (tokens *float64, cap float64) {
	switch {
	case !r.classAware:
		return &r.tokens, r.burstCap()
	case critical:
		return &r.critTokens, r.critCap()
	default:
		return &r.beTokens, r.beCap()
	}
}

// burstCap is the effective bucket capacity under the current brownout
// scale. scale is exactly 1 outside brownout, so the untouched path
// computes exactly BudgetBurst.
func (r *Retrier) burstCap() float64 { return r.pol.BudgetBurst * r.scale }

// critCap and beCap are the per-class capacities of the split budget.
func (r *Retrier) critCap() float64 { return r.critShare * r.burstCap() }
func (r *Retrier) beCap() float64   { return (1 - r.critShare) * r.burstCap() }

// SetBudgetScale sets the brownout budget multiplier in [0, 1] and clamps
// every bucket to its shrunken capacity immediately — tightening must bite
// now, not after the storm drains the old balance. Restoring to 1 raises
// the caps but never refunds tokens; they are earned back by successes.
func (r *Retrier) SetBudgetScale(s float64) {
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	r.scale = s
	if cap := r.burstCap(); r.tokens > cap {
		r.tokens = cap
	}
	if cap := r.critCap(); r.critTokens > cap {
		r.critTokens = cap
	}
	if cap := r.beCap(); r.beTokens > cap {
		r.beTokens = cap
	}
}

// EnableClassAccounting splits the retry budget into a critical bucket
// holding critShare of the capacity and a best-effort bucket holding the
// rest. Once split, a best-effort retry storm can at worst drain its own
// bucket — the critical share stays reserved. The current balance is
// divided proportionally at the moment of the split.
func (r *Retrier) EnableClassAccounting(critShare float64) {
	if critShare < 0 {
		critShare = 0
	}
	if critShare > 1 {
		critShare = 1
	}
	r.classAware = true
	r.critShare = critShare
	r.critTokens = r.tokens * critShare
	r.beTokens = r.tokens - r.critTokens
}

// ClassAware reports whether the budget is split per class.
func (r *Retrier) ClassAware() bool { return r.classAware }
