package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dcm/internal/rng"
	"dcm/internal/sim"
)

// Workload files are JSON renderings of WorkloadSpec:
//
//	{
//	  "name": "openloop-2class",
//	  "kind": "open",
//	  "arrivals": {"curve": "flashcrowd", "rate": 2000,
//	               "peakRate": 12000, "atSeconds": 120,
//	               "rampSeconds": 30, "holdSeconds": 60},
//	  "classes": [
//	    {"name": "premium", "weight": 0.2, "priority": 1, "sloSeconds": 1},
//	    {"name": "basic", "weight": 0.8}
//	  ]
//	}
//
// Decoding is strict — an unknown field anywhere is an error, matching the
// policy and chaos-scenario conventions: a typoed knob ("paekRate") must
// fail loudly, not silently leave a default in force.

// Workload kinds accepted by WorkloadSpec.Kind.
const (
	KindClosed = "closed"
	KindOpen   = "open"
	KindBursty = "bursty"
)

// Rate-curve kinds accepted by RateSpec.Curve.
const (
	CurveConstant   = "constant"
	CurveDiurnal    = "diurnal"
	CurveFlashCrowd = "flashcrowd"
)

// WorkloadSpec is the declarative wire form of one workload: which
// generator to run, its delay laws, its arrival curve and its traffic-class
// mix. Durations are in seconds throughout (specs are written by hand).
type WorkloadSpec struct {
	// Name labels the workload in reports.
	Name string `json:"name"`
	// Kind selects the generator: "closed", "open" or "bursty".
	Kind string `json:"kind"`

	// Users is the closed-loop population (closed kind only).
	Users int `json:"users,omitempty"`
	// Think is the closed-loop think-time law. Omitted means zero think
	// time (the Jmeter training mode).
	Think *DistSpec `json:"think,omitempty"`
	// StaggerSeconds spreads initial arrivals (closed/bursty kinds;
	// 0 = the generator default).
	StaggerSeconds float64 `json:"staggerSeconds,omitempty"`

	// Arrivals is the open-loop rate curve (open kind only).
	Arrivals *RateSpec `json:"arrivals,omitempty"`

	// Bursty parameterizes the Markov-modulated generator (bursty kind
	// only).
	Bursty *BurstySpec `json:"bursty,omitempty"`

	// Classes is the traffic-class mix (closed and open kinds). Empty
	// means classless traffic: every request carries class -1.
	Classes []ClassSpec `json:"classes,omitempty"`
}

// RateSpec is an open-loop arrival-rate curve. Rate and PeakRate are in
// requests per second.
type RateSpec struct {
	// Curve is "constant", "diurnal" or "flashcrowd".
	Curve string `json:"curve"`
	// Rate is the base arrival rate (the constant rate, the diurnal
	// midline, or the flash crowd's pre/post-spike baseline).
	Rate float64 `json:"rate"`
	// Amplitude is the diurnal curve's relative swing in (0, 1]: the rate
	// oscillates between Rate*(1-Amplitude) and Rate*(1+Amplitude).
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodSeconds is the diurnal period.
	PeriodSeconds float64 `json:"periodSeconds,omitempty"`
	// PeakRate is the flash crowd's plateau rate.
	PeakRate float64 `json:"peakRate,omitempty"`
	// AtSeconds is when the flash crowd's up-ramp starts.
	AtSeconds float64 `json:"atSeconds,omitempty"`
	// RampSeconds is the linear ramp duration (both up and down).
	RampSeconds float64 `json:"rampSeconds,omitempty"`
	// HoldSeconds is how long the flash crowd holds at PeakRate.
	HoldSeconds float64 `json:"holdSeconds,omitempty"`
}

// BurstySpec mirrors BurstyConfig in seconds.
type BurstySpec struct {
	Users              int     `json:"users"`
	NormalThinkSeconds float64 `json:"normalThinkSeconds"`
	SurgeThinkSeconds  float64 `json:"surgeThinkSeconds"`
	NormalDwellSeconds float64 `json:"normalDwellSeconds"`
	SurgeDwellSeconds  float64 `json:"surgeDwellSeconds"`
}

// ClassSpec is one traffic class of the mix: its share of the request
// stream plus the treatment and demand knobs the application layer maps
// onto its own per-class config. Class order in the spec defines the class
// indices the generator passes to InjectClass.
type ClassSpec struct {
	// Name identifies the class.
	Name string `json:"name"`
	// Weight is the class's share of arrivals (normalized over the mix).
	Weight float64 `json:"weight"`
	// Priority > 0 marks the class critical (shed-exempt under overload).
	Priority int `json:"priority,omitempty"`
	// SLOSeconds is the class goodput threshold (0 = the global SLA).
	SLOSeconds float64 `json:"sloSeconds,omitempty"`
	// AppDemand, Queries and QueryDemand shape the class's work profile
	// (0 = application defaults).
	AppDemand   float64 `json:"appDemand,omitempty"`
	Queries     int     `json:"queries,omitempty"`
	QueryDemand float64 `json:"queryDemand,omitempty"`
	// Think overrides the workload think-time law for this class
	// (closed kind only).
	Think *DistSpec `json:"think,omitempty"`
}

// SLO returns the class SLO as a duration.
func (c ClassSpec) SLO() time.Duration { return delayFromSeconds(c.SLOSeconds) }

// ParseSpec decodes and validates a JSON workload spec.
func ParseSpec(data []byte) (WorkloadSpec, error) {
	var s WorkloadSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return WorkloadSpec{}, fmt.Errorf("workload: parse spec: %w", err)
	}
	// Trailing garbage after the spec object means the file is not what
	// the author thinks it is.
	if dec.More() {
		return WorkloadSpec{}, fmt.Errorf("workload: parse spec: unexpected data after spec object")
	}
	if err := s.Validate(); err != nil {
		return WorkloadSpec{}, err
	}
	return s, nil
}

// LoadSpec reads and validates a JSON workload-spec file.
func LoadSpec(path string) (WorkloadSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return WorkloadSpec{}, fmt.Errorf("workload: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return WorkloadSpec{}, fmt.Errorf("workload: %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec. Error texts are pinned by tests.
func (s WorkloadSpec) Validate() error {
	switch s.Kind {
	case KindClosed:
		if s.Users <= 0 {
			return fmt.Errorf("workload: closed kind: users must be > 0 (got %d)", s.Users)
		}
		if s.Arrivals != nil || s.Bursty != nil {
			return fmt.Errorf("workload: closed kind: arrivals/bursty do not apply")
		}
		if s.Think != nil {
			if err := s.Think.Validate(); err != nil {
				return err
			}
		}
	case KindOpen:
		if s.Arrivals == nil {
			return fmt.Errorf("workload: open kind: arrivals is required")
		}
		if s.Users != 0 || s.Think != nil || s.Bursty != nil {
			return fmt.Errorf("workload: open kind: users/think/bursty do not apply")
		}
		if err := s.Arrivals.Validate(); err != nil {
			return err
		}
	case KindBursty:
		if s.Bursty == nil {
			return fmt.Errorf("workload: bursty kind: bursty is required")
		}
		if s.Users != 0 || s.Think != nil || s.Arrivals != nil {
			return fmt.Errorf("workload: bursty kind: users/think/arrivals do not apply")
		}
		if len(s.Classes) > 0 {
			return fmt.Errorf("workload: bursty kind: classes are not supported")
		}
		if err := s.Bursty.Validate(); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("workload: kind is required")
	default:
		return fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
	if s.StaggerSeconds < 0 {
		return fmt.Errorf("workload: staggerSeconds must be >= 0 (got %v)", s.StaggerSeconds)
	}
	if err := validateClassSpecs(s.Classes, s.Kind); err != nil {
		return err
	}
	return nil
}

// Validate checks the rate curve. Error texts are pinned by tests.
func (r RateSpec) Validate() error {
	if r.Rate <= 0 {
		return fmt.Errorf("workload: arrivals: rate must be > 0 (got %v)", r.Rate)
	}
	switch r.Curve {
	case CurveConstant:
		if r.Amplitude != 0 || r.PeriodSeconds != 0 || r.PeakRate != 0 ||
			r.AtSeconds != 0 || r.RampSeconds != 0 || r.HoldSeconds != 0 {
			return fmt.Errorf("workload: arrivals: constant curve takes only rate")
		}
	case CurveDiurnal:
		if r.Amplitude <= 0 || r.Amplitude > 1 {
			return fmt.Errorf("workload: arrivals: diurnal amplitude must be in (0, 1] (got %v)", r.Amplitude)
		}
		if r.PeriodSeconds <= 0 {
			return fmt.Errorf("workload: arrivals: diurnal period must be > 0 (got %v)", r.PeriodSeconds)
		}
		if r.PeakRate != 0 || r.AtSeconds != 0 || r.RampSeconds != 0 || r.HoldSeconds != 0 {
			return fmt.Errorf("workload: arrivals: diurnal curve takes rate/amplitude/periodSeconds")
		}
	case CurveFlashCrowd:
		if r.PeakRate <= r.Rate {
			return fmt.Errorf("workload: arrivals: flashcrowd peakRate must exceed rate (got %v <= %v)", r.PeakRate, r.Rate)
		}
		if r.AtSeconds < 0 || r.RampSeconds <= 0 || r.HoldSeconds < 0 {
			return fmt.Errorf("workload: arrivals: flashcrowd needs atSeconds >= 0, rampSeconds > 0, holdSeconds >= 0")
		}
		if r.Amplitude != 0 || r.PeriodSeconds != 0 {
			return fmt.Errorf("workload: arrivals: flashcrowd curve takes rate/peakRate/atSeconds/rampSeconds/holdSeconds")
		}
	case "":
		return fmt.Errorf("workload: arrivals: curve is required")
	default:
		return fmt.Errorf("workload: arrivals: unknown curve %q", r.Curve)
	}
	return nil
}

// BuildCurve builds the rate curve the spec describes.
func (r RateSpec) BuildCurve() (RateCurve, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	switch r.Curve {
	case CurveDiurnal:
		return &DiurnalRate{
			Base:      r.Rate,
			Amplitude: r.Amplitude,
			Period:    delayFromSeconds(r.PeriodSeconds),
		}, nil
	case CurveFlashCrowd:
		return &FlashCrowdRate{
			Base: r.Rate,
			Peak: r.PeakRate,
			At:   delayFromSeconds(r.AtSeconds),
			Ramp: delayFromSeconds(r.RampSeconds),
			Hold: delayFromSeconds(r.HoldSeconds),
		}, nil
	default:
		return ConstantRate(r.Rate), nil
	}
}

// Validate checks the bursty parameters. Error texts are pinned by tests.
func (b BurstySpec) Validate() error {
	if b.Users <= 0 {
		return fmt.Errorf("workload: bursty: users must be > 0 (got %d)", b.Users)
	}
	if b.NormalThinkSeconds <= 0 || b.SurgeThinkSeconds <= 0 ||
		b.SurgeThinkSeconds > b.NormalThinkSeconds {
		return fmt.Errorf("workload: bursty: need 0 < surgeThinkSeconds <= normalThinkSeconds (got %v, %v)",
			b.SurgeThinkSeconds, b.NormalThinkSeconds)
	}
	if b.NormalDwellSeconds <= 0 || b.SurgeDwellSeconds <= 0 {
		return fmt.Errorf("workload: bursty: dwell times must be > 0 (got %v, %v)",
			b.NormalDwellSeconds, b.SurgeDwellSeconds)
	}
	return nil
}

// Config converts the spec to a BurstyConfig.
func (b BurstySpec) Config(stagger float64) BurstyConfig {
	return BurstyConfig{
		Users:       b.Users,
		NormalThink: delayFromSeconds(b.NormalThinkSeconds),
		SurgeThink:  delayFromSeconds(b.SurgeThinkSeconds),
		NormalDwell: delayFromSeconds(b.NormalDwellSeconds),
		SurgeDwell:  delayFromSeconds(b.SurgeDwellSeconds),
		Stagger:     delayFromSeconds(stagger),
	}
}

// validateClassSpecs checks the class mix. Error texts are pinned by tests.
func validateClassSpecs(classes []ClassSpec, kind string) error {
	seen := make(map[string]bool, len(classes))
	for i, c := range classes {
		switch {
		case c.Name == "":
			return fmt.Errorf("workload: class %d has no name", i)
		case seen[c.Name]:
			return fmt.Errorf("workload: duplicate class %q", c.Name)
		case c.Weight <= 0:
			return fmt.Errorf("workload: class %q: weight must be > 0 (got %v)", c.Name, c.Weight)
		case c.Priority < 0:
			return fmt.Errorf("workload: class %q: priority must be >= 0 (got %d)", c.Name, c.Priority)
		case c.SLOSeconds < 0:
			return fmt.Errorf("workload: class %q: sloSeconds must be >= 0 (got %v)", c.Name, c.SLOSeconds)
		case c.AppDemand < 0 || c.Queries < 0 || c.QueryDemand < 0:
			return fmt.Errorf("workload: class %q: negative demand", c.Name)
		}
		seen[c.Name] = true
		if c.Think != nil {
			if kind != KindClosed {
				return fmt.Errorf("workload: class %q: per-class think applies only to closed kind", c.Name)
			}
			if err := c.Think.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Generator is a runnable workload (closed, open or bursty).
type Generator interface {
	Start()
	Stop()
}

// BuildClasses compiles the spec's class mix into generator classes
// (nil when the spec has no classes).
func (s WorkloadSpec) BuildClasses() ([]Class, error) {
	if len(s.Classes) == 0 {
		return nil, nil
	}
	out := make([]Class, len(s.Classes))
	for i, c := range s.Classes {
		out[i] = Class{Name: c.Name, Weight: c.Weight, Priority: c.Priority}
		if c.Think != nil {
			sampler, err := c.Think.Sampler()
			if err != nil {
				return nil, err
			}
			out[i].Think = sampler
		}
	}
	return out, nil
}

// Build constructs the generator the spec describes against the given
// target.
func (s WorkloadSpec) Build(eng *sim.Engine, rnd *rng.Rand, target Target) (Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	classes, err := s.BuildClasses()
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindClosed:
		cfg := ClosedLoopConfig{
			Users:   s.Users,
			Stagger: delayFromSeconds(s.StaggerSeconds),
		}
		loop, err := NewClosedLoop(eng, rnd, target, cfg)
		if err != nil {
			return nil, err
		}
		if s.Think != nil {
			sampler, err := s.Think.Sampler()
			if err != nil {
				return nil, err
			}
			loop.SetThinkSampler(sampler)
		}
		if len(classes) > 0 {
			if err := loop.SetClasses(classes); err != nil {
				return nil, err
			}
		}
		return loop, nil
	case KindOpen:
		curve, err := s.Arrivals.BuildCurve()
		if err != nil {
			return nil, err
		}
		gen, err := NewOpenLoopGen(eng, rnd, target, curve)
		if err != nil {
			return nil, err
		}
		if len(classes) > 0 {
			if err := gen.SetClasses(classes); err != nil {
				return nil, err
			}
		}
		return gen, nil
	case KindBursty:
		return NewBurstyLoop(eng, rnd, target, s.Bursty.Config(s.StaggerSeconds))
	}
	return nil, fmt.Errorf("workload: unknown kind %q", s.Kind)
}
