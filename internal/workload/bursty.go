package workload

import (
	"fmt"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// BurstyConfig parameterizes the Markov-modulated workload of Mi et al.,
// "Injecting realistic burstiness to a traditional client-server
// benchmark" (ICAC 2009) — the work the paper cites ([23]) for why n-tier
// traffic "may vary significantly even within a short time". The whole
// population shares a two-state modulating process: in the normal state
// users think slowly; during a surge they think fast, so arrivals
// correlate across users exactly like a flash crowd. The dwell times
// control the arrival process's index of dispersion.
type BurstyConfig struct {
	// Users is the population size.
	Users int
	// NormalThink and SurgeThink are the exponential think-time means of
	// the two states; SurgeThink should be much smaller.
	NormalThink, SurgeThink time.Duration
	// NormalDwell and SurgeDwell are the exponential mean dwell times of
	// the shared modulating state.
	NormalDwell, SurgeDwell time.Duration
	// Stagger spreads initial arrivals (default 1 s).
	Stagger time.Duration
}

// BurstyLoop is the burstiness-injected closed-loop generator.
type BurstyLoop struct {
	eng    *sim.Engine
	rnd    *rng.Rand
	target Target
	cfg    BurstyConfig

	stopped bool
	started bool
	retries metrics.Counter
	surge   bool
	retrier *resilience.Retrier
}

// NewBurstyLoop returns an unstarted generator.
func NewBurstyLoop(eng *sim.Engine, rnd *rng.Rand, target Target, cfg BurstyConfig) (*BurstyLoop, error) {
	if eng == nil || rnd == nil || target == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadWorkload)
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("%w: users %d", ErrBadWorkload, cfg.Users)
	}
	if cfg.NormalThink <= 0 || cfg.SurgeThink <= 0 || cfg.SurgeThink > cfg.NormalThink {
		return nil, fmt.Errorf("%w: think times %v/%v", ErrBadWorkload, cfg.NormalThink, cfg.SurgeThink)
	}
	if cfg.NormalDwell <= 0 || cfg.SurgeDwell <= 0 {
		return nil, fmt.Errorf("%w: dwell times %v/%v", ErrBadWorkload, cfg.NormalDwell, cfg.SurgeDwell)
	}
	if cfg.Stagger <= 0 {
		cfg.Stagger = time.Second
	}
	return &BurstyLoop{eng: eng, rnd: rnd, target: target, cfg: cfg}, nil
}

// Start launches the population and the shared modulating process.
// Start is idempotent.
func (b *BurstyLoop) Start() {
	if b.started {
		return
	}
	b.started = true
	for i := 0; i < b.cfg.Users; i++ {
		delay := time.Duration(b.rnd.Uniform(0, float64(b.cfg.Stagger)))
		b.eng.Schedule(delay, b.cycle)
	}
	b.scheduleSwitch()
}

// scheduleSwitch flips the shared state after an exponential dwell.
func (b *BurstyLoop) scheduleSwitch() {
	mean := b.cfg.NormalDwell
	if b.surge {
		mean = b.cfg.SurgeDwell
	}
	dwell := expDelay(b.rnd, mean)
	b.eng.Schedule(dwell, func() {
		if b.stopped {
			return
		}
		b.surge = !b.surge
		b.scheduleSwitch()
	})
}

// Stop retires all users after their in-flight requests complete.
func (b *BurstyLoop) Stop() { b.stopped = true }

// TotalRetries returns the lifetime number of retry attempts issued.
func (b *BurstyLoop) TotalRetries() uint64 { return b.retries.Total() }

// SetRetrier attaches a client-side retrier (see ClosedLoop.SetRetrier);
// nil disables retries.
func (b *BurstyLoop) SetRetrier(r *resilience.Retrier) { b.retrier = r }

// cycle is one user's request loop; think times follow the shared state.
func (b *BurstyLoop) cycle() {
	if b.stopped {
		return
	}
	b.startRequest(1)
}

// startRequest issues one attempt of a user's request, retrying failures
// after backoff while the retrier allows.
func (b *BurstyLoop) startRequest(attempt int) {
	b.target.Inject(func(_ time.Duration, ok bool) {
		if ok {
			if b.retrier != nil {
				b.retrier.OnSuccess()
			}
		} else if b.retrier != nil && b.retrier.Allow(attempt) {
			b.retries.Inc(1)
			b.eng.Schedule(b.retrier.Backoff(attempt), func() {
				if b.stopped {
					return
				}
				b.startRequest(attempt + 1)
			})
			return
		}
		mean := b.cfg.NormalThink
		if b.surge {
			mean = b.cfg.SurgeThink
		}
		think := expDelay(b.rnd, mean)
		b.eng.Schedule(think, b.cycle)
	})
}
