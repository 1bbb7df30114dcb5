package rng

import (
	"errors"
	"strconv"
)

// Used only by this package's tests; no production code calls these.

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the n elements addressed by swap in place.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// ErrBadSeed is returned by ParseSeed for inputs that are not unsigned
// integers.
var ErrBadSeed = errors.New("rng: seed must be an unsigned integer")

// ParseSeed converts a command-line seed string into a seed value.
func ParseSeed(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, ErrBadSeed
	}
	return v, nil
}
