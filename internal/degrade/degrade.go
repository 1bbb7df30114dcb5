// Package degrade is the self-healing overload layer: online detectors
// that recognize metastable collapse from the application's own lifetime
// counters, and a brownout controller that sheds best-effort load,
// tightens retry budgets and lowers admission caps until the system
// recovers — then restores everything through hysteresis bands so
// recovery never flaps.
//
// The detectors watch three signatures of the retry-storm failure mode
// (PR 4's experiment, §II of the paper's motivation):
//
//   - goodput collapse: good completions per offered request falling
//     under CollapseRatio while offered load stays non-trivial — work is
//     arriving but almost none of it completes within the SLA;
//   - queue-depth gradient: the mean observed queue depth growing by more
//     than QueueGradient across the detector window — the backlog
//     build-up that precedes the metastable regime;
//   - retry amplification: retry attempts per completion exceeding
//     RetryAmplification — load multiplying itself faster than it drains.
//
// Everything is deterministic and rng-free: the supervisor differences
// lifetime counters on a fixed tick, the brownout shed uses an
// error-diffusion accumulator inside internal/ntier, and a supervisor
// that is never constructed (or never fires) leaves a run byte-identical.
// The package is a leaf: it sees the application only through the Probes
// and Actions function bundles, so it unit-tests and benchmarks without
// an App and creates no import cycles.
package degrade

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/policy"
	"dcm/internal/sim"
)

// ErrBadConfig is returned for invalid supervisor construction.
var ErrBadConfig = errors.New("degrade: invalid config")

// Config parameterizes the supervisor. Build one from policy rules with
// FromRules; the zero value is invalid (no detectors armed).
type Config struct {
	// Period is the detector tick interval.
	Period time.Duration
	// Warmup suppresses detection (but not observation) for the run's
	// first Warmup of simulated time, so a closed-loop population ramping
	// up — a burst of simultaneous first requests — is not mistaken for
	// collapse. Timeline points are still recorded and the queue-gradient
	// baseline still primes during warmup.
	Warmup time.Duration
	// CollapseRatio, MinOfferedPerSecond, RetryAmplification and
	// QueueGradient arm the three detectors (zero disarms each; see the
	// package comment for their meaning).
	CollapseRatio       float64
	MinOfferedPerSecond float64
	RetryAmplification  float64
	QueueGradient       float64
	// EnterTicks consecutive unhealthy ticks enter brownout; ExitTicks
	// consecutive healthy ticks and at least MinDwell since entry exit it.
	EnterTicks int
	ExitTicks  int
	MinDwell   time.Duration
	// ShedRatio, RetryBudgetScale and AdmissionScale are the brownout
	// actions applied on entry and restored on exit.
	ShedRatio        float64
	RetryBudgetScale float64
	AdmissionScale   float64
	// WindowTicks is the queue-gradient comparison window (default 5).
	WindowTicks int
}

// FromRules converts validated policy rules into a supervisor config.
func FromRules(r policy.DegradeRules) Config {
	return Config{
		Period:              time.Duration(r.PeriodSeconds * float64(time.Second)),
		Warmup:              time.Duration(r.WarmupSeconds * float64(time.Second)),
		CollapseRatio:       r.CollapseRatio,
		MinOfferedPerSecond: r.MinOfferedPerSecond,
		RetryAmplification:  r.RetryAmplification,
		QueueGradient:       r.QueueGradient,
		EnterTicks:          r.EnterTicks,
		ExitTicks:           r.ExitTicks,
		MinDwell:            time.Duration(r.MinDwellSeconds * float64(time.Second)),
		ShedRatio:           r.ShedRatio,
		RetryBudgetScale:    r.RetryBudgetScale,
		AdmissionScale:      r.AdmissionScale,
	}
}

// validate rejects configs that cannot run and fills defaults.
func (c *Config) validate() error {
	if c.CollapseRatio <= 0 && c.RetryAmplification <= 0 && c.QueueGradient <= 0 {
		return fmt.Errorf("%w: no detector armed", ErrBadConfig)
	}
	if c.Period <= 0 {
		return fmt.Errorf("%w: period %v must be > 0", ErrBadConfig, c.Period)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("%w: warmup %v negative", ErrBadConfig, c.Warmup)
	}
	if c.EnterTicks < 1 || c.ExitTicks < 1 {
		return fmt.Errorf("%w: hysteresis ticks %d/%d must be >= 1",
			ErrBadConfig, c.EnterTicks, c.ExitTicks)
	}
	if c.MinDwell < 0 {
		return fmt.Errorf("%w: min dwell %v negative", ErrBadConfig, c.MinDwell)
	}
	if c.ShedRatio < 0 || c.ShedRatio > 1 {
		return fmt.Errorf("%w: shed ratio %v outside [0, 1]", ErrBadConfig, c.ShedRatio)
	}
	if c.RetryBudgetScale < 0 || c.RetryBudgetScale > 1 {
		return fmt.Errorf("%w: retry budget scale %v outside [0, 1]", ErrBadConfig, c.RetryBudgetScale)
	}
	if c.AdmissionScale < 0 || c.AdmissionScale > 1 {
		return fmt.Errorf("%w: admission scale %v outside [0, 1]", ErrBadConfig, c.AdmissionScale)
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = 5
	}
	return nil
}

// Probes is the supervisor's read surface: lifetime counters it
// differences per tick. Injected counts arrivals, Good counts completions
// within the SLA, Completed counts all completions, Retries counts retry
// attempts; QueueDepth returns the lifetime sum and count of queue-depth
// observations across the watched tier. Nil members disarm the detectors
// that need them.
type Probes struct {
	Injected  func() uint64
	Good      func() uint64
	Completed func() uint64
	Retries   func() uint64
	// Sheds counts the brownout controller's own front-door sheds. The
	// collapse detector subtracts them from offered load so the shed
	// traffic — failing fast by design, then retried by clients — does not
	// read as collapse evidence and latch the brownout open forever.
	Sheds func() uint64
	// QueueDepth returns the lifetime (sum, count) of per-arrival queue
	// depth observations.
	QueueDepth func() (float64, uint64)
}

// Actions is the supervisor's write surface: the brownout actuators.
// Each is invoked with the brownout value on entry and the restore value
// (0 shed, scale 1) on exit. Nil members are skipped.
type Actions struct {
	Shed       func(ratio float64)
	Admission  func(scale float64)
	RetryScale func(scale float64)
	// Note, when set, receives every brownout transition for the audit
	// trail.
	Note func(at time.Duration, entered bool, reason string)
}

// TimelinePoint is one detector tick's observables.
type TimelinePoint struct {
	At time.Duration `json:"at"`
	// OfferedPS and GoodPS are the tick's offered-load and goodput rates.
	// ShedPS is the brownout's own front-door shed rate; the collapse
	// detector judges OfferedPS - ShedPS (the admitted load).
	OfferedPS float64 `json:"offeredPS"`
	GoodPS    float64 `json:"goodPS"`
	ShedPS    float64 `json:"shedPS,omitempty"`
	// RetryAmp is retry attempts per completion this tick.
	RetryAmp float64 `json:"retryAmp"`
	// QueueMean is the mean observed queue depth this tick.
	QueueMean float64 `json:"queueMean"`
	// Unhealthy marks ticks at least one armed detector flagged;
	// Brownout marks ticks spent inside a brownout episode.
	Unhealthy bool `json:"unhealthy,omitempty"`
	Brownout  bool `json:"brownout,omitempty"`
}

// Episode is one brownout interval. ExitAt is zero while still open at
// the end of the run.
type Episode struct {
	EnterAt time.Duration `json:"enterAt"`
	ExitAt  time.Duration `json:"exitAt,omitempty"`
	// Reason names the detectors that voted unhealthy at entry.
	Reason string `json:"reason"`
}

// Report is the supervisor's lifetime record.
type Report struct {
	Ticks uint64 `json:"ticks"`
	// UnhealthyTicks counts ticks at least one detector flagged.
	UnhealthyTicks uint64    `json:"unhealthyTicks"`
	Episodes       []Episode `json:"episodes,omitempty"`
	// BrownoutSheds mirrors the application's brownout shed counter at
	// report time (filled by the experiment layer, not the supervisor).
	BrownoutSheds uint64 `json:"brownoutSheds,omitempty"`
	// Timeline is the per-tick detector record (present only when the
	// supervisor was built with timeline capture).
	Timeline []TimelinePoint `json:"timeline,omitempty"`
}

// Supervisor runs the detectors on a fixed tick and drives the brownout
// actions through hysteresis. Single-goroutine, simulation-thread only.
type Supervisor struct {
	eng     *sim.Engine
	cfg     Config
	probes  Probes
	actions Actions

	// Previous-tick counter snapshots.
	prevInjected  uint64
	prevGood      uint64
	prevCompleted uint64
	prevRetries   uint64
	prevSheds     uint64
	prevQSum      float64
	prevQCount    uint64

	// Queue-mean ring buffer for the gradient detector.
	qWindow []float64
	qNext   int
	qFilled bool

	hyst hysteresis

	ticks          uint64
	unhealthyTicks uint64
	episodes       []Episode
	timeline       []TimelinePoint
	captureTL      bool

	stop func()
}

// New builds a supervisor. It schedules nothing until Start.
func New(eng *sim.Engine, cfg Config, probes Probes, actions Actions) (*Supervisor, error) {
	if eng == nil {
		return nil, fmt.Errorf("%w: nil engine", ErrBadConfig)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Supervisor{
		eng:     eng,
		cfg:     cfg,
		probes:  probes,
		actions: actions,
		qWindow: make([]float64, cfg.WindowTicks),
		hyst: hysteresis{
			EnterTicks: cfg.EnterTicks,
			ExitTicks:  cfg.ExitTicks,
			MinDwell:   cfg.MinDwell,
		},
	}, nil
}

// CaptureTimeline pre-allocates and enables the per-tick timeline for a
// run of the given horizon. Call before Start.
func (s *Supervisor) CaptureTimeline(horizon time.Duration) {
	s.captureTL = true
	s.timeline = make([]TimelinePoint, 0, int(horizon/s.cfg.Period)+1)
}

// Start begins the detector ticker. Idempotent.
func (s *Supervisor) Start() {
	if s.stop != nil {
		return
	}
	s.stop = s.eng.Ticker(s.cfg.Period, s.tick)
}

// Stop halts the ticker (open episodes stay open in the report).
func (s *Supervisor) Stop() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// tick runs one detector evaluation.
func (s *Supervisor) tick() {
	s.ticks++
	now := s.eng.Now()
	secs := s.cfg.Period.Seconds()

	var offered, good, completed, retries uint64
	if s.probes.Injected != nil {
		cur := s.probes.Injected()
		offered, s.prevInjected = cur-s.prevInjected, cur
	}
	if s.probes.Good != nil {
		cur := s.probes.Good()
		good, s.prevGood = cur-s.prevGood, cur
	}
	if s.probes.Completed != nil {
		cur := s.probes.Completed()
		completed, s.prevCompleted = cur-s.prevCompleted, cur
	}
	if s.probes.Retries != nil {
		cur := s.probes.Retries()
		retries, s.prevRetries = cur-s.prevRetries, cur
	}
	var sheds uint64
	if s.probes.Sheds != nil {
		cur := s.probes.Sheds()
		sheds, s.prevSheds = cur-s.prevSheds, cur
	}
	var qMean float64
	var qObs uint64
	if s.probes.QueueDepth != nil {
		sum, count := s.probes.QueueDepth()
		dSum, dCount := sum-s.prevQSum, count-s.prevQCount
		s.prevQSum, s.prevQCount = sum, count
		if dCount > 0 {
			qMean = dSum / float64(dCount)
		}
		qObs = dCount
	}

	pt := TimelinePoint{
		At:        now,
		OfferedPS: float64(offered) / secs,
		GoodPS:    float64(good) / secs,
		ShedPS:    float64(sheds) / secs,
		QueueMean: qMean,
	}
	if completed > 0 {
		pt.RetryAmp = float64(retries) / float64(completed)
	} else if retries > 0 {
		// Retries with zero completions is the storm at its worst; report
		// the raw count as the amplification so the signal saturates
		// rather than divides by zero.
		pt.RetryAmp = float64(retries)
	}

	reason := s.detect(pt, offered, sheds, qObs, qMean)
	if now <= s.cfg.Warmup {
		// Warmup: observe (the gradient baseline keeps priming inside
		// detect) but never flag — the closed-loop startup burst is not a
		// collapse.
		reason = ""
	}
	pt.Unhealthy = reason != ""
	if pt.Unhealthy {
		s.unhealthyTicks++
	}

	switch s.hyst.step(now, pt.Unhealthy) {
	case transitionEnter:
		s.enterBrownout(now, reason)
	case transitionExit:
		s.exitBrownout(now)
	}
	pt.Brownout = s.hyst.active

	if s.captureTL {
		s.timeline = append(s.timeline, pt)
	}
}

// detect evaluates the armed detectors and returns a comma-joined list of
// those that flagged (empty = healthy tick).
func (s *Supervisor) detect(pt TimelinePoint, offered, sheds, qObs uint64, qMean float64) string {
	var reason string
	add := func(name string) {
		if reason == "" {
			reason = name
		} else {
			reason += "," + name
		}
	}
	// The collapse detector judges the admitted load: offered minus the
	// brownout's own sheds. A shed arrival fails fast by design (and is
	// typically retried by its client); counting it as collapsing demand
	// would hold the detector — and the brownout — latched forever.
	admittedPS := pt.OfferedPS - pt.ShedPS
	if admittedPS < 0 {
		admittedPS = 0
	}
	if s.cfg.CollapseRatio > 0 && admittedPS >= s.cfg.MinOfferedPerSecond && offered > sheds {
		if pt.GoodPS < s.cfg.CollapseRatio*admittedPS {
			add("goodput-collapse")
		}
	}
	if s.cfg.RetryAmplification > 0 && pt.RetryAmp > s.cfg.RetryAmplification {
		add("retry-amplification")
	}
	if s.cfg.QueueGradient > 0 && s.probes.QueueDepth != nil {
		// Compare this tick's mean depth against the window baseline from
		// WindowTicks ago. The baseline needs a small floor so an empty
		// system warming up (0 -> 1) does not register as infinite growth.
		if s.qFilled {
			base := s.qWindow[s.qNext]
			if base < 1 {
				base = 1
			}
			if qObs > 0 && qMean > base*s.cfg.QueueGradient {
				add("queue-gradient")
			}
		}
		s.qWindow[s.qNext] = qMean
		s.qNext = (s.qNext + 1) % len(s.qWindow)
		if s.qNext == 0 {
			s.qFilled = true
		}
	}
	return reason
}

// enterBrownout applies the brownout actions.
func (s *Supervisor) enterBrownout(now time.Duration, reason string) {
	s.episodes = append(s.episodes, Episode{EnterAt: now, Reason: reason})
	if s.actions.Shed != nil {
		s.actions.Shed(s.cfg.ShedRatio)
	}
	if s.actions.Admission != nil {
		s.actions.Admission(s.cfg.AdmissionScale)
	}
	if s.actions.RetryScale != nil {
		s.actions.RetryScale(s.cfg.RetryBudgetScale)
	}
	if s.actions.Note != nil {
		s.actions.Note(now, true, reason)
	}
}

// exitBrownout restores the pre-brownout settings.
func (s *Supervisor) exitBrownout(now time.Duration) {
	if n := len(s.episodes); n > 0 {
		s.episodes[n-1].ExitAt = now
	}
	if s.actions.Shed != nil {
		s.actions.Shed(0)
	}
	if s.actions.Admission != nil {
		s.actions.Admission(1)
	}
	if s.actions.RetryScale != nil {
		s.actions.RetryScale(1)
	}
	if s.actions.Note != nil {
		s.actions.Note(now, false, "recovered")
	}
}

// Report returns the supervisor's lifetime record. The returned slices
// alias the supervisor's own (callers marshal, they do not mutate).
func (s *Supervisor) Report() Report {
	return Report{
		Ticks:          s.ticks,
		UnhealthyTicks: s.unhealthyTicks,
		Episodes:       s.episodes,
		Timeline:       s.timeline,
	}
}
