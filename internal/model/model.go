// Package model implements the paper's concurrency-aware performance model
// (§III): the multi-threaded service-time law (Equation 5), the resulting
// throughput-vs-concurrency curve (Equation 7), its closed-form optimum N_b
// (Equation 8), parameter training by nonlinear least squares, and the
// soft-resource allocation plan DCM derives from the trained models. The
// simulator needs no Forced Flow bottleneck law (Equations 1–4) or
// effective service time (Equation 6); the package's tests keep both as
// checks on the model.
package model

import (
	"errors"
	"fmt"
	"math"

	"dcm/internal/fit"
)

// Params are the per-tier model parameters of Equation 5:
//
//	S*(N) = S0 + α(N−1) + βN(N−1)
//
// S0 is the single-threaded service time (seconds), α the per-thread
// contention delay, β the crosstalk (coherency) penalty, and γ the
// correction factor for the sub-linear speedup of adding servers to the
// tier (Equation 4).
type Params struct {
	S0    float64 `json:"s0"`
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
}

// Validate reports whether the parameters describe a physical server.
func (p Params) Validate() error {
	switch {
	case p.S0 <= 0:
		return fmt.Errorf("model: S0 = %v, want > 0", p.S0)
	case p.Alpha < 0:
		return fmt.Errorf("model: alpha = %v, want >= 0", p.Alpha)
	case p.Beta < 0:
		return fmt.Errorf("model: beta = %v, want >= 0", p.Beta)
	case p.Gamma <= 0:
		return fmt.Errorf("model: gamma = %v, want > 0", p.Gamma)
	}
	return nil
}

// ServiceTime returns S*(N) of Equation 5: the wall-clock time one request
// takes when n requests are processed concurrently. n below 1 is treated
// as 1 (a lone request sees the single-threaded service time).
func (p Params) ServiceTime(n float64) float64 {
	if n < 1 {
		n = 1
	}
	return p.S0 + p.Alpha*(n-1) + p.Beta*n*(n-1)
}

// Throughput returns X_max of Equation 7: the saturated throughput of a
// tier with servers servers, each running n concurrent requests.
func (p Params) Throughput(n float64, servers int) float64 {
	if servers < 1 || n < 1 {
		return 0
	}
	return p.Gamma * float64(servers) * n / p.ServiceTime(n)
}

// OptimalConcurrency returns N_b = sqrt((S0−α)/β), the per-server
// concurrency that minimizes the effective service time (§III-C). ok is
// false when the curve has no interior optimum (β = 0, or α ≥ S0, in which
// case throughput is monotone in N).
func (p Params) OptimalConcurrency() (nb float64, ok bool) {
	if p.Beta <= 0 || p.S0 <= p.Alpha {
		return 0, false
	}
	return math.Sqrt((p.S0 - p.Alpha) / p.Beta), true
}

// OptimalConcurrencyInt returns N_b rounded to the nearest whole thread,
// never below 1. ok follows OptimalConcurrency.
func (p Params) OptimalConcurrencyInt() (nb int, ok bool) {
	v, ok := p.OptimalConcurrency()
	if !ok {
		return 0, false
	}
	n := int(math.Round(v))
	if n < 1 {
		n = 1
	}
	return n, true
}

// Observation is one training point: measured saturated system throughput
// at a given per-server request-processing concurrency.
type Observation struct {
	Concurrency float64 `json:"concurrency"`
	Throughput  float64 `json:"throughput"`
}

// TrainOptions configures Train.
type TrainOptions struct {
	// KnownS0 pins the single-threaded service time (seconds), which the
	// operator can measure directly as the response time at concurrency 1.
	// Equation 7 is scale-invariant in (S0, α, β, γ) — multiplying all four
	// by a constant leaves every prediction and N_b unchanged — so one
	// anchor is needed to report parameters in physical units. If zero,
	// parameters are reported in the normalized gauge γ = 1.
	KnownS0 float64
	// Servers is K_b, the number of servers in the trained (bottleneck)
	// tier during the training run. Defaults to 1.
	Servers int
}

// TrainResult is a fitted tier model.
type TrainResult struct {
	Params Params `json:"params"`
	// RSquared is the coefficient of determination of the fit, the value
	// the paper reports as R² in Table I.
	RSquared float64 `json:"rSquared"`
	// OptimalN is the predicted optimal per-server concurrency N_b.
	OptimalN int `json:"optimalN"`
	// MaxThroughput is the predicted system throughput at OptimalN.
	MaxThroughput float64 `json:"maxThroughput"`
	// Iterations is the number of optimizer iterations of the best start.
	Iterations int `json:"iterations"`
}

// Errors returned by Train.
var (
	ErrTooFewObservations = errors.New("model: need at least 4 observations")
	ErrNoOptimum          = errors.New("model: fitted curve has no interior optimum")
)

// Train fits Equation 7 to (concurrency, throughput) observations, exactly
// as §V-A trains the Tomcat and MySQL models. The fit is performed in the
// identifiable parameterization
//
//	X(N) = N / (a + b(N−1) + cN(N−1))
//
// with a = S0/(γK), b = α/(γK), c = β/(γK), then mapped back to physical
// units using opts.KnownS0 (see TrainOptions).
func Train(obs []Observation, opts TrainOptions) (TrainResult, error) {
	if len(obs) < 4 {
		return TrainResult{}, ErrTooFewObservations
	}
	servers := opts.Servers
	if servers < 1 {
		servers = 1
	}
	xs := make([]float64, len(obs))
	ys := make([]float64, len(obs))
	peak, maxN := 0.0, 0.0
	for i, o := range obs {
		if o.Concurrency <= 0 || o.Throughput <= 0 {
			return TrainResult{}, fmt.Errorf("model: observation %d (N=%v, X=%v) out of domain",
				i, o.Concurrency, o.Throughput)
		}
		xs[i] = o.Concurrency
		ys[i] = o.Throughput
		if o.Throughput > peak {
			peak = o.Throughput
		}
		if o.Concurrency > maxN {
			maxN = o.Concurrency
		}
	}

	curve := func(n float64, p []float64) float64 {
		den := p[0] + p[1]*(n-1) + p[2]*n*(n-1)
		if den <= 0 {
			return math.Inf(1) // rejected by the fitter
		}
		return n / den
	}
	// a ≈ 1/X(1); seed several splits of the denominator growth between the
	// linear and quadratic terms.
	a0 := 1 / peak
	guesses := [][]float64{
		{a0, a0 / 10, a0 / 1000},
		{a0, a0 / 2, a0 / 100},
		{a0 * 2, a0 / 100, a0 / 10000},
		{a0 / 2, a0 / 5, a0 / 200},
	}
	res, err := fit.MultiStart(fit.Problem{
		Model: curve,
		X:     xs,
		Y:     ys,
		Lower: []float64{1e-12, 0, 0},
		Upper: []float64{math.Inf(1), math.Inf(1), math.Inf(1)},
	}, guesses, fit.Options{MaxIterations: 500})
	if err != nil {
		return TrainResult{}, fmt.Errorf("model: train: %w", err)
	}

	a, b, c := res.Params[0], res.Params[1], res.Params[2]
	// Map back to physical units: pick γ from the S0 anchor (or γ = 1).
	gamma := 1.0
	if opts.KnownS0 > 0 {
		gamma = opts.KnownS0 / (a * float64(servers))
	}
	params := Params{
		S0:    a * gamma * float64(servers),
		Alpha: b * gamma * float64(servers),
		Beta:  c * gamma * float64(servers),
		Gamma: gamma,
	}
	out := TrainResult{
		Params:     params,
		RSquared:   res.RSquared,
		Iterations: res.Iterations,
	}
	nb, ok := params.OptimalConcurrency()
	if !ok || nb > maxN {
		// An optimum beyond the observed concurrency range is an
		// extrapolation the data gives no evidence for; report it as absent
		// rather than recommending an unmeasured operating point.
		return out, ErrNoOptimum
	}
	out.OptimalN = int(math.Round(nb))
	if out.OptimalN < 1 {
		out.OptimalN = 1
	}
	out.MaxThroughput = params.Throughput(nb, servers)
	return out, nil
}
