package workload

import (
	"fmt"
	"time"

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

// BurstyLoop is the burstiness-injected closed-loop generator: a
// ClosedLoop whose think-time law follows the shared modulating state.
type BurstyLoop struct {
	*ClosedLoop
	cfg   BurstyConfig
	surge bool
}

// NewBurstyLoop returns an unstarted generator.
func NewBurstyLoop(eng *sim.Engine, rnd *rng.Rand, target Target, cfg BurstyConfig) (*BurstyLoop, error) {
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
	loop, err := NewClosedLoop(eng, rnd, target, ClosedLoopConfig{Users: cfg.Users, Stagger: cfg.Stagger})
	if err != nil {
		return nil, err
	}
	b := &BurstyLoop{ClosedLoop: loop, cfg: cfg}
	loop.SetThinkSampler(func(r *rng.Rand) time.Duration {
		if b.surge {
			return expDelay(r, cfg.SurgeThink)
		}
		return expDelay(r, cfg.NormalThink)
	})
	return b, nil
}

// Start launches the population and the shared modulating process.
// Start is idempotent; the embedded ClosedLoop's Stop retires the users
// and ends the modulating process.
func (b *BurstyLoop) Start() {
	if b.started {
		return
	}
	b.ClosedLoop.Start()
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
