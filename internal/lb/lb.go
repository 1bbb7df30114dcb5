// Package lb simulates the HAProxy load balancers the paper places in
// front of the Tomcat and MySQL tiers (§IV-A): it spreads requests across
// the ready servers of a tier and supports runtime changes to the backend
// set, which is how the VM-agent rebalances load after scaling.
//
// A Balancer is generic over its backend type and hands back the backend
// it holds, so it is the caller's only registry of replicas: each node of
// the service graph (internal/graph) registers its *Member values here,
// each member carrying its own circuit breaker, and keeps no other index
// of them.
package lb

import (
	"errors"
	"fmt"
	"slices"
)

// Backend is one balanceable server.
type Backend interface {
	// Name identifies the backend.
	Name() string
	// Accepting reports whether the backend takes new work (draining and
	// provisioning backends return false).
	Accepting() bool
	// Load returns the backend's current number of in-flight requests,
	// used by the least-connections policy.
	Load() int
}

// Policy selects among ready backends.
type Policy int

// Balancing policies.
const (
	// RoundRobin rotates through ready backends — HAProxy's default.
	RoundRobin Policy = iota + 1
	// LeastConnections picks the ready backend with the fewest in-flight
	// requests, breaking ties round-robin.
	LeastConnections
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "roundrobin"
	case LeastConnections:
		return "leastconn"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Errors returned by the balancer.
var (
	ErrNoBackends = errors.New("lb: no ready backends")
	// ErrGuarded is returned when ready backends exist but the guard
	// refused every one of them — the circuit-breaker signal, distinct
	// from ErrNoBackends so callers can report "breaker open" rather than
	// "tier down".
	ErrGuarded   = errors.New("lb: all ready backends guarded")
	ErrDuplicate = errors.New("lb: duplicate backend")
	ErrUnknown   = errors.New("lb: unknown backend")
)

// Balancer distributes work over a mutable set of backends of type B and
// hands back the B it holds. The zero value is not usable; construct with
// New. Balancer is not safe for concurrent use (the simulation is
// single-threaded).
type Balancer[B Backend] struct {
	policy   Policy
	backends []B
	next     int
	guard    func(B) bool
}

// New returns a balancer with the given policy.
func New[B Backend](policy Policy) *Balancer[B] {
	if policy != LeastConnections {
		policy = RoundRobin
	}
	return &Balancer[B]{policy: policy}
}

// SetGuard installs a per-pick admission predicate consulted alongside
// Accepting: a backend for which guard returns false is skipped as if it
// were draining. This is the circuit-breaker hook — the tier graph guards
// each backend with its breaker's Ready check. A nil guard (the default)
// admits every accepting backend and leaves Pick byte-identical to the
// unguarded balancer.
func (b *Balancer[B]) SetGuard(guard func(B) bool) { b.guard = guard }

// Add registers a backend.
func (b *Balancer[B]) Add(backend B) error {
	for _, existing := range b.backends {
		if existing.Name() == backend.Name() {
			return fmt.Errorf("%w: %q", ErrDuplicate, backend.Name())
		}
	}
	b.backends = append(b.backends, backend)
	return nil
}

// Remove deregisters the named backend. In-flight requests on it are not
// affected; it simply receives no new picks.
func (b *Balancer[B]) Remove(name string) error {
	for i, existing := range b.backends {
		if existing.Name() == name {
			b.backends = slices.Delete(b.backends, i, i+1)
			if b.next > i {
				b.next--
			}
			// Removing the backend the cursor pointed at, when it was the
			// last index, leaves next == len(backends). Pick's modulo hides
			// that — but a later Add would place the new backend exactly at
			// the stale cursor, serving it immediately and skipping the wrap
			// back to index 0. Normalize the cursor into range instead.
			if b.next >= len(b.backends) {
				b.next = 0
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknown, name)
}

// Backends returns the registered backends in registration order. The
// slice is the balancer's own: callers read it in place and must not
// modify it, and a caller that may Add or Remove while iterating copies
// it first.
func (b *Balancer[B]) Backends() []B { return b.backends }

// ReadyCount returns the number of accepting backends.
func (b *Balancer[B]) ReadyCount() int {
	n := 0
	for _, backend := range b.backends {
		if backend.Accepting() {
			n++
		}
	}
	return n
}

// Pick selects a ready backend according to the policy, skipping guarded
// backends. When ready backends exist but the guard refuses all of them,
// Pick returns ErrGuarded; when no backend is accepting at all it returns
// ErrNoBackends.
func (b *Balancer[B]) Pick() (B, error) {
	var none B
	n := len(b.backends)
	if n == 0 {
		return none, ErrNoBackends
	}
	guarded := false
	switch b.policy {
	case LeastConnections:
		best := -1
		bestLoad := 0
		// Scan starting at the rotation point so ties rotate.
		for i := 0; i < n; i++ {
			j := (b.next + i) % n
			cand := b.backends[j]
			if !cand.Accepting() {
				continue
			}
			if b.guard != nil && !b.guard(cand) {
				guarded = true
				continue
			}
			if load := cand.Load(); best < 0 || load < bestLoad {
				best, bestLoad = j, load
			}
		}
		if best < 0 {
			return none, noPick(guarded)
		}
		b.next = (b.next + 1) % n
		return b.backends[best], nil
	default: // RoundRobin
		for i := 0; i < n; i++ {
			cand := b.backends[b.next%n]
			b.next = (b.next + 1) % n
			if !cand.Accepting() {
				continue
			}
			if b.guard != nil && !b.guard(cand) {
				guarded = true
				continue
			}
			return cand, nil
		}
		return none, noPick(guarded)
	}
}

// noPick is the error of a pick that found no backend: ErrGuarded when
// the guard refused a ready one, ErrNoBackends otherwise.
func noPick(guarded bool) error {
	if guarded {
		return ErrGuarded
	}
	return ErrNoBackends
}

// PickSession selects a ready backend for a session key via rendezvous
// (highest-random-weight) hashing: the same key maps to the same backend
// for as long as that backend stays ready, and when a backend leaves only
// the sessions it owned move — the sticky sessions HAProxy provides with
// a consistent-hash balance rule. Guarded and non-accepting backends are
// skipped exactly as in Pick, so a session whose home backend is draining
// or breaker-open fails over (deterministically) to its next-highest
// backend and returns home when the backend recovers. PickSession does
// not advance the round-robin cursor; sessionless traffic through Pick is
// unaffected.
func (b *Balancer[B]) PickSession(key uint64) (B, error) {
	var none B
	if len(b.backends) == 0 {
		return none, ErrNoBackends
	}
	best := -1
	var bestScore uint64
	guarded := false
	for i, cand := range b.backends {
		if !cand.Accepting() {
			continue
		}
		if b.guard != nil && !b.guard(cand) {
			guarded = true
			continue
		}
		score := rendezvousScore(key, cand.Name())
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return none, noPick(guarded)
	}
	return b.backends[best], nil
}

// rendezvousScore mixes a session key with a backend name into the
// backend's weight for that key (splitmix64 finalizer over an FNV-1a name
// hash — cheap, stateless and stable across runs).
func rendezvousScore(key uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := key ^ h
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
