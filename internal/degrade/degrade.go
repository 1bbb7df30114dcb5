// Package degrade is the self-healing overload layer: online detectors
// that recognize metastable collapse from the application's own lifetime
// counters, and a brownout controller that sheds best-effort load,
// tightens retry budgets and lowers admission caps until the system
// recovers — then restores everything through hysteresis bands so
// recovery never flaps.
//
// The detectors watch three signatures of the retry-storm failure mode
// (the retry-storm experiment, §II of the paper's motivation):
//
//   - goodput collapse: good completions per offered request falling
//     under CollapseRatio while offered load stays non-trivial — work is
//     arriving but almost none of it completes within the SLA;
//   - queue-depth gradient: the mean observed queue depth growing by more
//     than QueueGradient across a five-tick window — the backlog
//     build-up that precedes the metastable regime;
//   - retry amplification: retry attempts per completion exceeding
//     RetryAmplification — load multiplying itself faster than it drains.
//
// The thresholds, hysteresis and brownout strengths are the fields of
// policy.DegradeRules, which New takes as they are.
//
// Everything is deterministic and rng-free: the supervisor differences
// lifetime counters on a fixed tick, the brownout shed uses an
// error-diffusion accumulator inside internal/ntier, and a supervisor
// that is never constructed (or never fires) leaves a run byte-identical.
// The supervisor sees the application only through the Probes and
// Actions function bundles, so it unit-tests and benchmarks without an
// App; ForApp binds the bundles to a running graph.App.
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

// windowTicks is the queue-gradient detector's comparison window: a
// tick's mean queue depth is judged against the mean windowTicks ticks
// earlier.
const windowTicks = 5

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
	rules   policy.DegradeRules
	probes  Probes
	actions Actions
	// period and warmup are rules.PeriodSeconds and rules.WarmupSeconds
	// as durations.
	period, warmup time.Duration

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

// New builds a supervisor from degrade rules that pass
// policy.DegradeRules.Validate and arm at least one detector. It
// schedules nothing until Start.
func New(eng *sim.Engine, rules policy.DegradeRules, probes Probes, actions Actions) (*Supervisor, error) {
	if eng == nil {
		return nil, fmt.Errorf("%w: nil engine", ErrBadConfig)
	}
	if err := rules.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if !rules.Enabled() {
		return nil, fmt.Errorf("%w: no detector armed", ErrBadConfig)
	}
	period := seconds(rules.PeriodSeconds)
	if period <= 0 {
		// A tick shorter than the clock's resolution would never fire.
		return nil, fmt.Errorf("%w: period %v s rounds to zero", ErrBadConfig, rules.PeriodSeconds)
	}
	return &Supervisor{
		eng:     eng,
		rules:   rules,
		probes:  probes,
		actions: actions,
		period:  period,
		warmup:  seconds(rules.WarmupSeconds),
		qWindow: make([]float64, windowTicks),
		hyst: hysteresis{
			EnterTicks: rules.EnterTicks,
			ExitTicks:  rules.ExitTicks,
			MinDwell:   seconds(rules.MinDwellSeconds),
		},
	}, nil
}

// seconds converts a rules field in seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// CaptureTimeline pre-allocates and enables the per-tick timeline for a
// run of the given horizon. Call before Start.
func (s *Supervisor) CaptureTimeline(horizon time.Duration) {
	s.captureTL = true
	s.timeline = make([]TimelinePoint, 0, int(horizon/s.period)+1)
}

// Start begins the detector ticker. Idempotent.
func (s *Supervisor) Start() {
	if s.stop != nil {
		return
	}
	s.stop = s.eng.Ticker(s.period, s.tick)
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
	secs := s.period.Seconds()

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
	if now <= s.warmup {
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
	if s.rules.CollapseRatio > 0 && admittedPS >= s.rules.MinOfferedPerSecond && offered > sheds {
		if pt.GoodPS < s.rules.CollapseRatio*admittedPS {
			add("goodput-collapse")
		}
	}
	if s.rules.RetryAmplification > 0 && pt.RetryAmp > s.rules.RetryAmplification {
		add("retry-amplification")
	}
	if s.rules.QueueGradient > 0 && s.probes.QueueDepth != nil {
		// Compare this tick's mean depth against the window baseline from
		// windowTicks ago. The baseline needs a small floor so an empty
		// system warming up (0 -> 1) does not register as infinite growth.
		if s.qFilled {
			base := s.qWindow[s.qNext]
			if base < 1 {
				base = 1
			}
			if qObs > 0 && qMean > base*s.rules.QueueGradient {
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
		s.actions.Shed(s.rules.ShedRatio)
	}
	if s.actions.Admission != nil {
		s.actions.Admission(s.rules.AdmissionScale)
	}
	if s.actions.RetryScale != nil {
		s.actions.RetryScale(s.rules.RetryBudgetScale)
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
