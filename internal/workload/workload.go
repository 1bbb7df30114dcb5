// Package workload implements the paper's three workload generators
// (§II-A):
//
//   - ClosedLoop with zero think time — the Jmeter setup used for model
//     training, where the request-processing concurrency equals the number
//     of users;
//   - ClosedLoop with exponential think time (mean 3 s) — the original
//     RUBBoS client emulator used for model validation;
//   - TraceDriven — the revised RUBBoS emulator that varies the number of
//     concurrent users over time according to a trace file, used for the
//     bursty-workload evaluation (§V-B);
//
// plus OpenLoopGen, an open-loop Poisson generator whose rate follows a
// curve (constant, diurnal or flash crowd), for overload past saturation.
package workload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// delayFromSeconds converts a sampled delay in seconds into an engine
// delay. The naive time.Duration(sec * float64(time.Second)) conversion
// truncates toward zero, so every draw schedules up to a nanosecond early
// and a sub-nanosecond draw schedules at zero delay — turning a positive
// think time into an immediate re-arrival. Round half-up instead and clamp
// positive draws to one engine tick (1 ns). Non-positive samples stay
// zero: that is the deliberate degenerate mode (Jmeter zero think time).
func delayFromSeconds(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	d := time.Duration(math.Round(sec * float64(time.Second)))
	if d < 1 {
		d = 1
	}
	return d
}

// expDelay draws an exponential delay with the given mean. A non-positive
// mean is the zero-delay degenerate mode and consumes no randomness (the
// draw-parity contract byte-identical runs rely on).
func expDelay(rnd *rng.Rand, mean time.Duration) time.Duration {
	return delayFromSeconds(rnd.Exp(mean.Seconds()))
}

// Target is anything that can process a request (normally *graph.App).
// The generators call only InjectClass. class indexes the target's
// configured class list, and -1 means classless; session is a stable key
// for load-balancer affinity, and 0 means no affinity. Classless traffic
// is InjectClass(-1, 0, done). Inject is that same call, kept only
// because perfbench's request rung calls it directly.
type Target interface {
	Inject(done func(rt time.Duration, ok bool))
	InjectClass(class int, session uint64, done func(rt time.Duration, ok bool))
}

// ErrBadWorkload is returned for invalid generator configurations.
var ErrBadWorkload = errors.New("workload: invalid config")

// ClosedLoopConfig parameterizes a closed-loop generator.
type ClosedLoopConfig struct {
	// Users is the initial number of emulated users.
	Users int
	// ThinkTime is the mean of the exponential think time between a
	// response and the user's next request. Zero emulates Jmeter's
	// zero-think-time mode.
	ThinkTime time.Duration
	// Stagger spreads each new user's first request uniformly over this
	// window, avoiding a synchronized thundering herd. Defaults to
	// max(ThinkTime, 1s).
	Stagger time.Duration
}

// ClosedLoop emulates a population of users, each cycling through
// request → response → think. The population can be changed at runtime,
// which is how TraceDriven applies a trace.
type ClosedLoop struct {
	eng    *sim.Engine
	rnd    *rng.Rand
	target Target
	cfg    ClosedLoopConfig

	want    int // desired population
	live    int // users currently cycling
	started bool
	stopped bool

	retrier *resilience.Retrier

	// Class-mix state (nil/zero without classes). Classless users all
	// share the one record in classless.
	classes   []Class
	picker    *classPicker
	classless user
	think     Sampler // think-law override (nil = exponential ThinkTime)
	sessions  uint64  // next session id

	completed metrics.Counter
	retries   metrics.Counter
}

// NewClosedLoop returns an unstarted closed-loop generator.
func NewClosedLoop(eng *sim.Engine, rnd *rng.Rand, target Target, cfg ClosedLoopConfig) (*ClosedLoop, error) {
	if eng == nil || rnd == nil || target == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadWorkload)
	}
	if cfg.Users < 0 || cfg.ThinkTime < 0 || cfg.Stagger < 0 {
		return nil, fmt.Errorf("%w: negative users/think/stagger", ErrBadWorkload)
	}
	if cfg.Stagger == 0 {
		cfg.Stagger = cfg.ThinkTime
		if cfg.Stagger < time.Second {
			cfg.Stagger = time.Second
		}
	}
	c := &ClosedLoop{eng: eng, rnd: rnd, target: target, cfg: cfg, want: cfg.Users}
	c.classless = user{c: c, cls: -1}
	return c, nil
}

// SetRetrier attaches a client-side retrier: a user whose request fails
// retries it after the retrier's jittered backoff, up to the policy's
// attempt cap and budget, before giving up and thinking. Each retry is
// re-issued through the target like any request (it is a new HTTP request
// from the server's point of view). nil (the default) disables retries
// and leaves the cycle byte-identical to the retry-free generator.
func (c *ClosedLoop) SetRetrier(r *resilience.Retrier) { c.retrier = r }

// SetThinkSampler overrides the exponential think-time law with an
// arbitrary sampler (heavy-tailed think times). nil (the default) keeps
// the exponential ThinkTime law. Must be called before Start.
func (c *ClosedLoop) SetThinkSampler(s Sampler) { c.think = s }

// SetClasses installs a traffic-class mix: each spawned user draws a class
// by weight and keeps it (and a stable session id, for load-balancer
// affinity) for life. Must be called before Start.
func (c *ClosedLoop) SetClasses(classes []Class) error {
	picker, err := newClassPicker(classes)
	if err != nil {
		return err
	}
	c.classes = classes
	c.picker = picker
	return nil
}

// Start launches the initial user population. Start is idempotent.
func (c *ClosedLoop) Start() {
	if c.started {
		return
	}
	// A class mix with critical classes splits the retry budget by the
	// mix's weight shares, so a best-effort retry storm can at worst
	// drain its own share (see resilience.Retrier.EnableClassAccounting).
	if c.picker != nil && c.retrier != nil && !c.retrier.ClassAware() {
		if share := criticalShare(c.classes); share > 0 {
			c.retrier.EnableClassAccounting(share)
		}
	}
	c.started = true
	n := c.want
	c.want = 0
	c.SetUsers(n)
}

// criticalShare is the critical (Priority > 0) classes' weight share of
// the mix — the fraction of the retry budget reserved for them.
func criticalShare(classes []Class) float64 {
	var crit, total float64
	for _, c := range classes {
		total += c.Weight
		if c.Priority > 0 {
			crit += c.Weight
		}
	}
	if total <= 0 {
		return 0
	}
	return crit / total
}

// Stop retires all users; in-flight requests complete but no new requests
// are issued.
func (c *ClosedLoop) Stop() {
	c.stopped = true
	c.want = 0
}

// Users returns the desired user population.
func (c *ClosedLoop) Users() int { return c.want }

// Live returns the number of users still cycling (lags Users after a
// downward adjustment until users finish their current cycle).
func (c *ClosedLoop) Live() int { return c.live }

// SetUsers adjusts the population at runtime. Growth spawns users whose
// first requests are staggered; shrinkage retires users as they complete
// their current cycle, like real users leaving after their page loads.
func (c *ClosedLoop) SetUsers(n int) {
	if n < 0 {
		n = 0
	}
	if c.stopped {
		return
	}
	c.want = n
	if !c.started {
		return
	}
	for c.live < c.want {
		c.live++
		delay := time.Duration(c.rnd.Uniform(0, float64(c.cfg.Stagger)))
		u := &c.classless
		if c.picker != nil {
			// Class mode: the user draws a class and a session id at spawn
			// and keeps both for life — a premium user stays premium, and
			// the session key pins their requests to one backend.
			cls := c.picker.pick(c.rnd)
			c.sessions++
			u = &user{c: c, cls: cls, session: c.sessions, critical: c.classes[cls].Priority > 0}
		}
		c.eng.Schedule(delay, u.cycle)
	}
}

// user is one emulated user as its request loop sees it: its class (-1
// classless) and session key (0 none), and whether the class is critical
// for the retry budget. The callbacks below capture only the record and
// the attempt number, which keeps each closure at three words.
type user struct {
	c        *ClosedLoop
	cls      int
	session  uint64
	critical bool
}

// cycle is one user's request loop. The user retires whenever the live
// population exceeds the desired one.
func (u *user) cycle() {
	c := u.c
	if c.stopped || c.live > c.want {
		c.live--
		return
	}
	u.request(1)
}

// request issues one attempt of a user's request (attempt 1 is the
// original). A failed attempt retries after backoff while the retrier
// allows; the user thinks and cycles once the request succeeds or is
// abandoned. Retry-budget traffic is class-attributed: critical
// (Priority > 0) classes debit and refill their own share of a
// class-aware budget so neither class can starve the other's retries
// during a storm.
func (u *user) request(attempt int) {
	u.c.target.InjectClass(u.cls, u.session, func(_ time.Duration, ok bool) {
		c := u.c
		if ok {
			c.completed.Inc(1)
			if c.retrier != nil {
				c.retrier.OnSuccess(u.critical)
			}
		} else if c.retrier != nil && c.retrier.Allow(attempt, u.critical) {
			c.retries.Inc(1)
			c.eng.Schedule(c.retrier.Backoff(attempt), func() {
				// The user may have been retired (or the run stopped) while
				// backing off.
				c := u.c
				if c.stopped || c.live > c.want {
					c.live--
					return
				}
				u.request(attempt + 1)
			})
			return
		}
		c.eng.Schedule(c.thinkDelay(u.cls), u.cycle)
	})
}

// thinkDelay draws one think time: the class law if the class has one,
// else the generator-wide sampler override, else the exponential
// ThinkTime default.
func (c *ClosedLoop) thinkDelay(cls int) time.Duration {
	if cls >= 0 && cls < len(c.classes) && c.classes[cls].Think != nil {
		return c.classes[cls].Think(c.rnd)
	}
	if c.think != nil {
		return c.think(c.rnd)
	}
	return expDelay(c.rnd, c.cfg.ThinkTime)
}

// TotalCompleted returns the lifetime number of completed requests.
func (c *ClosedLoop) TotalCompleted() uint64 { return c.completed.Total() }

// TotalRetries returns the lifetime number of retry attempts issued.
func (c *ClosedLoop) TotalRetries() uint64 { return c.retries.Total() }

// TraceDriven replays a user-population trace through a ClosedLoop — the
// revised RUBBoS client emulator of §II-A.
type TraceDriven struct {
	loop   *ClosedLoop
	trace  *trace.Trace
	eng    *sim.Engine
	stop   func()
	period time.Duration
}

// NewTraceDriven wraps a trace around a closed-loop generator. period is
// how often the population is re-synchronized to the trace (default 1 s).
func NewTraceDriven(eng *sim.Engine, rnd *rng.Rand, target Target, tr *trace.Trace, think time.Duration, period time.Duration) (*TraceDriven, error) {
	if tr == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrBadWorkload)
	}
	if period <= 0 {
		period = time.Second
	}
	loop, err := NewClosedLoop(eng, rnd, target, ClosedLoopConfig{
		Users:     tr.UsersAt(0),
		ThinkTime: think,
	})
	if err != nil {
		return nil, err
	}
	return &TraceDriven{loop: loop, trace: tr, eng: eng, period: period}, nil
}

// Start launches the generator and begins following the trace.
func (t *TraceDriven) Start() {
	if t.stop != nil {
		return
	}
	t.loop.Start()
	t.stop = t.eng.Ticker(t.period, func() {
		t.loop.SetUsers(t.trace.UsersAt(t.eng.Now()))
	})
}

// Stop halts trace following and retires all users.
func (t *TraceDriven) Stop() {
	if t.stop != nil {
		t.stop()
	}
	t.loop.Stop()
}

// Loop exposes the underlying closed loop (for stats).
func (t *TraceDriven) Loop() *ClosedLoop { return t.loop }

// Trace returns the trace being replayed.
func (t *TraceDriven) Trace() *trace.Trace { return t.trace }
