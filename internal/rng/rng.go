// Package rng provides a deterministic, splittable pseudo-random number
// generator and the probability distributions used throughout the simulator.
//
// Every source of randomness in the repository flows from a single seed
// through this package, which makes every experiment reproducible
// bit-for-bit. The generator is xoshiro256**, seeded through splitmix64 as
// recommended by its authors.
package rng

import (
	"math"
	"math/bits"
	"strconv"
)

// Rand is a deterministic pseudo-random number generator. The zero value is
// not usable; construct one with New or by splitting an existing Rand.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return &r
}

// Split derives an independent child generator from r. The child's stream is
// a pure function of r's current state and label, so components that split
// with distinct labels get decorrelated streams regardless of the order in
// which other components draw numbers.
func (r *Rand) Split(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// splitmix64 advances the splitmix64 state and returns the next output.
func splitmix64(state uint64) (next, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand; callers own the validity of n.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n=" + strconv.Itoa(n))
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean yields 0, which models a degenerate (zero) delay.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Uniform returns a uniform value in [lo, hi). If hi <= lo it returns lo.
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *Rand) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// BoundedPareto returns a bounded Pareto variate on [lo, hi] with tail index
// alpha. It is used to inject heavy-tailed burstiness into synthetic traces.
func (r *Rand) BoundedPareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return lo
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Weighted draws indexes in proportion to fixed weights: one Float64
// scaled by the total weight, compared against the cumulative weights.
type Weighted struct {
	cum []float64 // cumulative weights, summed left to right
}

// NewWeighted returns a draw over weights, which must be non-empty and
// positive; callers own their validation.
func NewWeighted(weights []float64) *Weighted {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	return &Weighted{cum: cum}
}

// Pick draws one index from r (one Float64, zero allocations).
func (w *Weighted) Pick(r *Rand) int {
	u := r.Float64() * w.cum[len(w.cum)-1]
	for i, c := range w.cum {
		if u < c {
			return i
		}
	}
	return len(w.cum) - 1
}
