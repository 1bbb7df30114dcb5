package resilience

import (
	"fmt"
	"time"
)

// BreakerConfig parameterizes a circuit breaker. The zero value disables
// breaking (Enabled reports false).
type BreakerConfig struct {
	// FailureRate is the failure fraction over the sliding window at or
	// above which the breaker opens. Zero disables the breaker; values are
	// clamped to (0, 1].
	FailureRate float64 `json:"failureRate,omitempty"`
	// Window is the sliding failure-rate window (default 10 s), tracked in
	// Buckets buckets (default 8) so old outcomes age out in steps instead
	// of all at once.
	Window  time.Duration `json:"window,omitempty"`
	Buckets int           `json:"buckets,omitempty"`
	// MinSamples is the minimum number of outcomes in the window before
	// the breaker may open (default 10) — a single early failure must not
	// trip it.
	MinSamples int `json:"minSamples,omitempty"`
	// Cooldown is how long the breaker stays open before allowing
	// half-open probes (default 5 s).
	Cooldown time.Duration `json:"cooldown,omitempty"`
	// HalfOpenProbes is the number of concurrent probe requests admitted
	// while half-open (default 1); CloseAfter is the number of consecutive
	// probe successes that close the breaker (default 3).
	HalfOpenProbes int `json:"halfOpenProbes,omitempty"`
	CloseAfter     int `json:"closeAfter,omitempty"`
}

// DefaultBreakerConfig returns the canonical enabled configuration.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailureRate: 0.5}
}

// Enabled reports whether the breaker is active.
func (c BreakerConfig) Enabled() bool { return c.FailureRate > 0 }

// Validate rejects nonsensical breaker configurations.
func (c BreakerConfig) Validate() error {
	if c.FailureRate < 0 || c.FailureRate > 1 {
		return fmt.Errorf("%w: breaker failure rate %v outside [0, 1]", ErrBadConfig, c.FailureRate)
	}
	if c.Window < 0 || c.Cooldown < 0 {
		return fmt.Errorf("%w: negative breaker duration", ErrBadConfig)
	}
	if c.Buckets < 0 || c.MinSamples < 0 || c.HalfOpenProbes < 0 || c.CloseAfter < 0 {
		return fmt.Errorf("%w: negative breaker count", ErrBadConfig)
	}
	return nil
}

// withDefaults fills zero fields with the documented defaults.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 3
	}
	return c
}

// BreakerState is the classic three-state machine.
type BreakerState int

// Breaker states.
const (
	// StateClosed: traffic flows; outcomes feed the failure-rate window.
	StateClosed BreakerState = iota
	// StateOpen: traffic is refused until the cooldown elapses.
	StateOpen
	// StateHalfOpen: a bounded number of probes flow; their outcomes
	// decide between closing and re-opening.
	StateHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Breaker is one backend's circuit breaker: a bucketed sliding
// failure-rate window driving the closed → open → half-open machine.
// Fully deterministic — state changes only on Attempt and Record calls
// with caller-supplied clocks — and single-goroutine like the rest of the
// simulation.
type Breaker struct {
	cfg    BreakerConfig
	bucket time.Duration // width of one window bucket

	state     BreakerState
	succ      []uint64
	fail      []uint64
	lastAbs   int64 // absolute index of the bucket lastly written
	openUntil time.Duration

	probes    int // in-flight half-open probes
	probeSucc int // consecutive probe successes

	opened uint64 // lifetime count of closed/half-open -> open transitions

	// stateHook, when installed, observes every state transition (from,
	// to). Used by the invariant checker to validate transition legality;
	// nil (the default) costs one comparison per transition, never per
	// request.
	stateHook func(from, to BreakerState)
}

// SetStateHook installs fn to observe every state transition (nil
// uninstalls). The hook must not mutate the breaker.
func (b *Breaker) SetStateHook(fn func(from, to BreakerState)) { b.stateHook = fn }

// transition moves the machine to state `to`, notifying the hook.
func (b *Breaker) transition(to BreakerState) {
	if b.stateHook != nil && b.state != to {
		b.stateHook(b.state, to)
	}
	b.state = to
}

// NewBreaker returns a closed breaker. A disabled config yields a breaker
// whose Ready and Attempt always allow and whose Record does nothing.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:    cfg,
		bucket: cfg.Window / time.Duration(cfg.Buckets),
		succ:   make([]uint64, cfg.Buckets),
		fail:   make([]uint64, cfg.Buckets),
	}
}

// advance rotates the window to now, clearing buckets that aged out.
func (b *Breaker) advance(now time.Duration) {
	abs := int64(now / b.bucket)
	if abs <= b.lastAbs {
		return
	}
	steps := abs - b.lastAbs
	if steps > int64(b.cfg.Buckets) {
		steps = int64(b.cfg.Buckets)
	}
	for i := int64(1); i <= steps; i++ {
		idx := int((b.lastAbs + i) % int64(b.cfg.Buckets))
		b.succ[idx] = 0
		b.fail[idx] = 0
	}
	b.lastAbs = abs
}

// window returns the success and failure totals over the sliding window.
func (b *Breaker) window() (succ, fail uint64) {
	for i := range b.succ {
		succ += b.succ[i]
		fail += b.fail[i]
	}
	return succ, fail
}

// Ready reports, without mutating state, whether an attempt at now would
// be admitted. Load balancers use this as a pick-time guard.
func (b *Breaker) Ready(now time.Duration) bool {
	if !b.cfg.Enabled() {
		return true
	}
	switch b.state {
	case StateOpen:
		return now >= b.openUntil
	case StateHalfOpen:
		return b.probes < b.cfg.HalfOpenProbes
	default:
		return true
	}
}

// Attempt admits or refuses one request at now, transitioning open →
// half-open when the cooldown has elapsed and consuming a probe slot while
// half-open. Every admitted attempt must be matched by exactly one Record
// call with its outcome.
func (b *Breaker) Attempt(now time.Duration) bool {
	if !b.cfg.Enabled() {
		return true
	}
	switch b.state {
	case StateOpen:
		if now < b.openUntil {
			return false
		}
		b.transition(StateHalfOpen)
		b.probeSucc = 0
		b.probes = 1
		return true
	case StateHalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			return false
		}
		b.probes++
		return true
	default:
		return true
	}
}

// Record feeds one outcome into the breaker. While half-open the outcome
// is treated as a probe result: CloseAfter consecutive successes close the
// breaker, any failure re-opens it. (Outcomes of attempts admitted before
// an open transition may land while half-open; they are conservatively
// counted as probe results too.)
func (b *Breaker) Record(now time.Duration, success bool) {
	if !b.cfg.Enabled() {
		return
	}
	b.advance(now)
	switch b.state {
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if !success {
			b.open(now)
			return
		}
		b.probeSucc++
		if b.probeSucc >= b.cfg.CloseAfter {
			b.close()
		}
	case StateClosed:
		idx := int(b.lastAbs % int64(b.cfg.Buckets))
		if success {
			b.succ[idx]++
		} else {
			b.fail[idx]++
		}
		succ, fail := b.window()
		total := succ + fail
		if total >= uint64(b.cfg.MinSamples) &&
			float64(fail) >= b.cfg.FailureRate*float64(total) {
			b.open(now)
		}
	default: // StateOpen: a straggler outcome from before the transition.
	}
}

// RecordNeutral releases an admitted attempt without counting an outcome,
// for verdicts that say nothing about the backend's health (admission
// rejections, sheds, downstream breaker refusals — backpressure doing its
// job). While half-open it frees the probe slot without advancing the
// close counter; otherwise it is a no-op.
func (b *Breaker) RecordNeutral() {
	if !b.cfg.Enabled() {
		return
	}
	if b.state == StateHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// open trips the breaker.
func (b *Breaker) open(now time.Duration) {
	b.transition(StateOpen)
	b.openUntil = now + b.cfg.Cooldown
	b.probes = 0
	b.probeSucc = 0
	b.opened++
}

// close resets the breaker to closed with a clean window.
func (b *Breaker) close() {
	b.transition(StateClosed)
	b.probes = 0
	b.probeSucc = 0
	for i := range b.succ {
		b.succ[i] = 0
		b.fail[i] = 0
	}
}
