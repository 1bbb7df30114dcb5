// Package connpool is the simulator's one soft-resource gate and the
// database connection pool built on it.
//
// DCM manages two soft resources (§II-A, §IV-B), each server's thread
// pool and each app server's DB connection pool, and both admit the same
// way: FIFO waiters, deadlines, a bounded queue, runtime resizing without
// dropping held units. So both are a Gate — of server sessions, and of
// connections. A Pool models the one global pool per Tomcat that the
// paper's modified RUBBoS shares among all servlets "in order to
// precisely control the number of concurrent requests flowing to the
// downstream MySQL", resized at runtime by the APP-agent.
//
// An acquisition's record (a server Session, a Conn) is owned by the
// caller from its grant until Release; the gate then resets it and keeps
// it on a per-gate free list for a later acquisition, so a warm gate
// allocates nothing. A holder must read what it needs of a record before
// Release and never touch it after. Each recycle bumps the record's
// generation (Waiter.Gen), so a long-lived holder can check that the
// record it releases is still its own.
package connpool

import (
	"errors"
	"fmt"

	"dcm/internal/metrics"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// ErrBadSize is returned for non-positive pool sizes at construction.
var ErrBadSize = errors.New("connpool: size must be >= 1")

// Pool is a connection pool: a Gate of connections with no shedder.
type Pool = Gate[Conn, struct{}]

// Conn is one acquisition of a connection: waiter, then held connection.
type Conn struct {
	w Waiter[Conn, struct{}]
}

// Release returns the connection; releasing twice panics. The pool then
// recycles c, so the caller must not touch it again.
func (c *Conn) Release() { c.w.Release(c) }

// Gen returns the connection record's generation (see Waiter.Gen).
func (c *Conn) Gen() uint64 { return c.w.Gen() }

// connections is the Kind of every Pool. Grant waits share the server's
// service-time buckets (0.1 ms to ~52 s) so per-tier reports line up.
var connections = Kind[Conn, struct{}]{
	Noun:       "connpool",
	Enter:      trace.EventPoolWait,
	Exit:       trace.EventPoolGrant,
	WaitBounds: metrics.ExpBuckets(1e-4, 2, 20),
	Header:     func(c *Conn) *Waiter[Conn, struct{}] { return &c.w },
	Timer:      func(c *Conn) func() { return c.w.Expire },
}

// New returns a pool with the given size.
func New(eng *sim.Engine, name string, size int) (*Pool, error) {
	if eng == nil {
		return nil, errors.New("connpool: nil engine")
	}
	if size < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	return NewGate(eng, &connections, name, size, nil, nil), nil
}

// Leak consumes k units until Unleak repairs them — the chaos
// connection-leak fault (an application bug holding connections it never
// returns). They count against the size at once, even if that
// over-commits the gate: holders keep their units and the capacity
// shrinks as they release. Non-positive k is a no-op.
func (g *Gate[E, X]) Leak(k int) {
	if k <= 0 {
		return
	}
	g.l.Leaked += k
	g.occupancy.Set(g.eng.Now(), float64(g.l.Held+g.l.Leaked))
}

// Unleak repairs up to k leaked units and admits waiters.
func (g *Gate[E, X]) Unleak(k int) {
	if k > g.l.Leaked {
		k = g.l.Leaked
	}
	if k <= 0 {
		return
	}
	g.l.Leaked -= k
	g.occupancy.Set(g.eng.Now(), float64(g.l.Held+g.l.Leaked))
	g.admit()
}
