package workload

import (
	"fmt"
	"math"
	"time"

	"dcm/internal/rng"
)

// The pluggable delay laws of the workload library. Real n-tier traffic is
// not exponential: think times and service demands are heavy-tailed
// (lognormal bodies, Pareto tails — the virtualized-web-workload
// characterization this library calibrates against), so every delay a
// generator draws — think time, inter-arrival gap — goes through a
// Sampler built from a DistSpec instead of a hard-coded exponential.

// Sampler draws one delay. Implementations must consume a deterministic
// number of rng draws per call wherever byte-identity matters (Normal's
// rejection loop is the documented exception, matching NoiseSigma).
type Sampler func(*rng.Rand) time.Duration

// Distribution kinds accepted by DistSpec.Dist.
const (
	DistConstant    = "constant"
	DistExponential = "exponential"
	DistLognormal   = "lognormal"
	DistPareto      = "pareto"
)

// DistSpec selects and parameterizes one delay law. All parameters are in
// seconds. The spec is the JSON wire form (see WorkloadSpec); Sampler
// compiles it.
type DistSpec struct {
	// Dist is the law: "constant", "exponential", "lognormal" or
	// "pareto".
	Dist string `json:"dist"`
	// Mean is the distribution mean (constant, exponential, lognormal).
	Mean float64 `json:"mean,omitempty"`
	// CV is the lognormal coefficient of variation (stddev/mean); the
	// lognormal is parameterized by (Mean, CV) so specs state calibration
	// targets directly. CV 0 is rejected — use "constant".
	CV float64 `json:"cv,omitempty"`
	// Alpha is the bounded-Pareto tail index; Min and Max are its support
	// bounds. The mean is derived (see MeanSeconds).
	Alpha float64 `json:"alpha,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Validate checks the spec. Error texts are pinned by tests.
func (d DistSpec) Validate() error {
	switch d.Dist {
	case DistConstant, DistExponential:
		if d.Mean <= 0 {
			return fmt.Errorf("workload: dist %q: mean must be > 0 (got %v)", d.Dist, d.Mean)
		}
		if d.CV != 0 || d.Alpha != 0 || d.Min != 0 || d.Max != 0 {
			return fmt.Errorf("workload: dist %q: cv/alpha/min/max do not apply", d.Dist)
		}
	case DistLognormal:
		if d.Mean <= 0 {
			return fmt.Errorf("workload: dist %q: mean must be > 0 (got %v)", d.Dist, d.Mean)
		}
		if d.CV <= 0 {
			return fmt.Errorf("workload: dist %q: cv must be > 0 (got %v)", d.Dist, d.CV)
		}
		if d.Alpha != 0 || d.Min != 0 || d.Max != 0 {
			return fmt.Errorf("workload: dist %q: alpha/min/max do not apply", d.Dist)
		}
	case DistPareto:
		if d.Alpha <= 0 {
			return fmt.Errorf("workload: dist %q: alpha must be > 0 (got %v)", d.Dist, d.Alpha)
		}
		if d.Min <= 0 || d.Max <= d.Min {
			return fmt.Errorf("workload: dist %q: need 0 < min < max (got %v, %v)", d.Dist, d.Min, d.Max)
		}
		if d.Mean != 0 || d.CV != 0 {
			return fmt.Errorf("workload: dist %q: mean/cv are derived, not set", d.Dist)
		}
	case "":
		return fmt.Errorf("workload: dist is required")
	default:
		return fmt.Errorf("workload: unknown dist %q", d.Dist)
	}
	return nil
}

// Sampler compiles the spec into a delay sampler. Samples are converted
// with the round-half-up / one-tick-clamp rule, so a positive-mean law
// never schedules a zero-delay event.
func (d DistSpec) Sampler() (Sampler, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	switch d.Dist {
	case DistConstant:
		delay := delayFromSeconds(d.Mean)
		return func(*rng.Rand) time.Duration { return delay }, nil
	case DistExponential:
		mean := d.Mean
		return func(r *rng.Rand) time.Duration {
			return delayFromSeconds(r.Exp(mean))
		}, nil
	case DistLognormal:
		// mean m, coefficient of variation c:
		// sigma^2 = ln(1 + c^2), mu = ln(m) - sigma^2/2.
		sigma2 := math.Log(1 + d.CV*d.CV)
		mu := math.Log(d.Mean) - sigma2/2
		sigma := math.Sqrt(sigma2)
		return func(r *rng.Rand) time.Duration {
			return delayFromSeconds(r.LogNormal(mu, sigma))
		}, nil
	case DistPareto:
		alpha, lo, hi := d.Alpha, d.Min, d.Max
		return func(r *rng.Rand) time.Duration {
			return delayFromSeconds(r.BoundedPareto(alpha, lo, hi))
		}, nil
	}
	return nil, fmt.Errorf("workload: unknown dist %q", d.Dist)
}

// boundedParetoMean is E[X] of the bounded Pareto on [lo, hi] with tail
// index alpha.
func boundedParetoMean(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return 0
	}
	if alpha == 1 {
		return (lo * hi / (hi - lo)) * math.Log(hi/lo)
	}
	norm := math.Pow(lo, alpha) / (1 - math.Pow(lo/hi, alpha))
	return norm * alpha / (alpha - 1) *
		(math.Pow(lo, 1-alpha) - math.Pow(hi, 1-alpha))
}

// boundedParetoMoment2 is E[X^2] of the bounded Pareto.
func boundedParetoMoment2(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return 0
	}
	if alpha == 2 {
		norm := math.Pow(lo, alpha) / (1 - math.Pow(lo/hi, alpha))
		return norm * alpha * math.Log(hi/lo)
	}
	norm := math.Pow(lo, alpha) / (1 - math.Pow(lo/hi, alpha))
	return norm * alpha / (alpha - 2) *
		(math.Pow(lo, 2-alpha) - math.Pow(hi, 2-alpha))
}
