package workload

import (
	"fmt"
	"math"
	"time"

	"dcm/internal/rng"
	"dcm/internal/sim"
)

// Class is one traffic class as the generators see it: a weighted slice of
// the stream, optionally with its own think-time law. The class at index i
// is injected as class i — the spec keeps generator classes and the
// application's RequestClass list aligned by construction.
type Class struct {
	Name string
	// Weight is the class's share of traffic (normalized over the mix).
	Weight float64
	// Priority > 0 marks the class critical: its retries debit the
	// critical share of a class-aware retry budget and the brownout
	// front door never sheds it (mirrors graph.Class.Priority).
	Priority int
	// Think overrides the generator think-time law for this class
	// (closed-loop only; nil = the generator default).
	Think Sampler
}

// classPicker draws classes by cumulative weight with one uniform draw.
type classPicker struct {
	cum []float64 // cumulative weights, cum[len-1] == total
}

func newClassPicker(classes []Class) (*classPicker, error) {
	cum := make([]float64, len(classes))
	total := 0.0
	for i, c := range classes {
		if c.Name == "" {
			return nil, fmt.Errorf("%w: class %d has no name", ErrBadWorkload, i)
		}
		if c.Weight <= 0 {
			return nil, fmt.Errorf("%w: class %q weight %v", ErrBadWorkload, c.Name, c.Weight)
		}
		total += c.Weight
		cum[i] = total
	}
	if len(cum) == 0 {
		return nil, fmt.Errorf("%w: empty class mix", ErrBadWorkload)
	}
	return &classPicker{cum: cum}, nil
}

// pick draws one class index (one uniform draw, zero allocations).
func (p *classPicker) pick(rnd *rng.Rand) int {
	u := rnd.Uniform(0, p.cum[len(p.cum)-1])
	for i, c := range p.cum {
		if u < c {
			return i
		}
	}
	return len(p.cum) - 1
}

// RateCurve is a time-varying arrival rate in requests per second.
type RateCurve interface {
	// Rate returns the instantaneous rate at simulated time t.
	Rate(t time.Duration) float64
	// Max bounds Rate over all t — the thinning envelope.
	Max() float64
}

// ConstantRate is a flat curve.
type ConstantRate float64

// Rate returns the constant rate.
func (c ConstantRate) Rate(time.Duration) float64 { return float64(c) }

// Max returns the constant rate.
func (c ConstantRate) Max() float64 { return float64(c) }

// DiurnalRate is a sinusoid around Base: Base*(1 + Amplitude*sin(2πt/Period)),
// the day/night swell of a user-facing service compressed to simulation
// scale.
type DiurnalRate struct {
	Base      float64
	Amplitude float64 // relative, in (0, 1]
	Period    time.Duration
}

// Rate returns the sinusoid at t.
func (d *DiurnalRate) Rate(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(d.Period)
	return d.Base * (1 + d.Amplitude*math.Sin(phase))
}

// Max returns the sinusoid's crest.
func (d *DiurnalRate) Max() float64 { return d.Base * (1 + d.Amplitude) }

// FlashCrowdRate is a trapezoid spike: Base until At, a linear ramp to
// Peak over Ramp, a plateau of Hold, a linear ramp back down over Ramp,
// then Base again.
type FlashCrowdRate struct {
	Base, Peak     float64
	At, Ramp, Hold time.Duration
}

// Rate returns the trapezoid at t.
func (f *FlashCrowdRate) Rate(t time.Duration) float64 {
	switch {
	case t < f.At:
		return f.Base
	case t < f.At+f.Ramp:
		frac := float64(t-f.At) / float64(f.Ramp)
		return f.Base + (f.Peak-f.Base)*frac
	case t < f.At+f.Ramp+f.Hold:
		return f.Peak
	case t < f.At+2*f.Ramp+f.Hold:
		frac := float64(t-f.At-f.Ramp-f.Hold) / float64(f.Ramp)
		return f.Peak - (f.Peak-f.Base)*frac
	default:
		return f.Base
	}
}

// Max returns the plateau rate.
func (f *FlashCrowdRate) Max() float64 { return f.Peak }

// OpenLoopGen issues requests along a time-varying Poisson stream,
// independent of responses — the open-loop arrival model real internet
// traffic follows, where clients do not politely wait for the system to
// drain before sending more. Time variation uses Lewis-Shedler thinning:
// candidate arrivals are generated at the envelope rate Max() and accepted
// with probability Rate(now)/Max(), which keeps the stream an exact
// non-homogeneous Poisson process. The arrival hot path allocates nothing
// in steady state (callbacks are preallocated), so the generator can
// sustain millions of scheduled arrivals.
type OpenLoopGen struct {
	eng    *sim.Engine
	rnd    *rng.Rand
	target Target
	curve  RateCurve
	max    float64
	thin   bool // curve is time-varying: thin candidates

	picker *classPicker

	started   bool
	stopped   bool
	scheduled uint64 // accepted arrivals over the lifetime
	thinned   uint64 // candidates rejected by thinning

	// Preallocated hot-path callback (the method value escapes once, here,
	// instead of once per arrival).
	arriveFn func()
}

// NewOpenLoopGen returns an unstarted open-loop generator driving the
// given rate curve.
func NewOpenLoopGen(eng *sim.Engine, rnd *rng.Rand, target Target, curve RateCurve) (*OpenLoopGen, error) {
	if eng == nil || rnd == nil || target == nil || curve == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadWorkload)
	}
	max := curve.Max()
	if max <= 0 || math.IsInf(max, 0) || math.IsNaN(max) {
		return nil, fmt.Errorf("%w: curve max rate %v", ErrBadWorkload, max)
	}
	_, constant := curve.(ConstantRate)
	o := &OpenLoopGen{
		eng:    eng,
		rnd:    rnd,
		target: target,
		curve:  curve,
		max:    max,
		thin:   !constant,
	}
	o.arriveFn = o.arrive
	return o, nil
}

// SetClasses installs a traffic-class mix: each accepted arrival draws a
// class by weight and carries it as its class. Must be called before
// Start.
func (o *OpenLoopGen) SetClasses(classes []Class) error {
	picker, err := newClassPicker(classes)
	if err != nil {
		return err
	}
	o.picker = picker
	return nil
}

// Start begins the arrival stream. Start is idempotent.
func (o *OpenLoopGen) Start() {
	if o.started || o.stopped {
		return
	}
	o.started = true
	o.scheduleGap()
}

// Stop halts the arrival stream; in-flight requests complete.
func (o *OpenLoopGen) Stop() { o.stopped = true }

// scheduleGap draws the next candidate gap at the envelope rate.
func (o *OpenLoopGen) scheduleGap() {
	gap := delayFromSeconds(o.rnd.Exp(1 / o.max))
	o.eng.Schedule(gap, o.arriveFn)
}

// arrive handles one candidate arrival: thin, inject, schedule the next.
func (o *OpenLoopGen) arrive() {
	if o.stopped {
		return
	}
	if o.thin && o.rnd.Uniform(0, o.max) >= o.curve.Rate(o.eng.Now()) {
		o.thinned++
		o.scheduleGap()
		return
	}
	o.scheduled++
	cls := -1
	if o.picker != nil {
		cls = o.picker.pick(o.rnd)
	}
	o.target.InjectClass(cls, 0, ignoreOutcome)
	o.scheduleGap()
}

// ignoreOutcome is the open loop's done callback. Arrivals never wait on
// responses, and outcomes (per class too) are tallied in the target, so
// the generator has nothing to record.
func ignoreOutcome(time.Duration, bool) {}

// Scheduled returns the lifetime number of accepted (injected) arrivals.
func (o *OpenLoopGen) Scheduled() uint64 { return o.scheduled }

// Thinned returns the lifetime number of candidates rejected by thinning.
func (o *OpenLoopGen) Thinned() uint64 { return o.thinned }
