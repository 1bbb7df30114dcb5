package connpool

import (
	"fmt"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// Gate admits acquisitions of one soft resource: at most Size units are
// held at once, and every further acquisition waits in a FIFO queue until
// a unit frees up, its deadline passes, the waiter cap refuses it or the
// CoDel shedder drops it. A server's thread pool and a connection Pool
// are both Gates and differ only in data: their Kind, shedder and owner.
//
// E is the owner's acquisition record, which holds a Waiter[E, X] header,
// so one record is both the queue entry and the held unit; X is the
// record's own state (Waiter.Ext). Records are recycled through the
// gate's free list: a caller owns the record from its grant until
// Release, after which the gate may hand it to a later acquisition.
// Free() = Size - Held - Leaked may go negative after a leak or a shrink,
// and the gate never admits while it is <= 0. A Gate must only be used
// from the simulation goroutine.
type Gate[E, X any] struct {
	eng   *sim.Engine
	kind  *Kind[E, X]
	name  string
	owner any
	codel *resilience.CoDel // nil: no shedding

	l    Ledger
	dead bool
	// queue[head:] are the waiters in FIFO order. admit pops by advancing
	// head, so the array is kept and reused, not regrown.
	queue      []*E
	head       int
	free       []*E // recycled records, reused last-in first-out
	maxWaiters int
	// grace is the backlog a SetMaxWaiters shrink grandfathered: legal
	// until the queue drains under the cap (see queueCap).
	grace int

	occupancy                   metrics.TimeWeighted // Held + Leaked
	timeouts, rejections, sheds metrics.Counter
	depths, grantWaits          *metrics.Histogram // nil unless the Kind keeps them

	tracer *trace.RequestTracer
	tier   string
	chk    *invariant.Checker
}

// Kind is what a gate admits to, shared by every gate of a resource.
type Kind[E, X any] struct {
	Noun        string          // prefixes the gate's name in reports: "server"
	Enter, Exit trace.EventKind // recorded on a grant-or-queue and on a grant
	// DepthBounds buckets the queue depth at arrival, WaitBounds the wait
	// of a grant in seconds; nil keeps no histogram.
	DepthBounds, WaitBounds []float64
	Header                  func(*E) *Waiter[E, X] // the record's header
	// Timer returns the header's Expire method value, a queued waiter's
	// deadline timer body, bound once per record. The owner binds it: a
	// method value made in generic code also captures the dictionary (24
	// bytes, not 16).
	Timer func(*E) func()
}

// Ledger is a gate's unit accounting, audited by CheckInvariant. It is
// exported so an owner's white-box tests can corrupt one field at a time.
type Ledger struct {
	Size, Held, Leaked int // Held excludes Leaked
	Dead               int // failed waiters still occupying queue slots
	Grants             metrics.Counter
	Releases           uint64
}

// Waiter is the header of one acquisition record: the outcome callback
// and the admission bookkeeping (deadline timer, enqueue time for CoDel,
// criticality). A waiter that fails while queued keeps its slot, marked
// failed, until popped or compacted, and is never handed out. Every
// record that leaves the gate is reset and goes to the free list; it
// keeps only its gate, its bound timer body and its generation, which is
// bumped, so a holder can tell its grant from a later one.
type Waiter[E, X any] struct {
	gate      *Gate[E, X]
	fn        func(*E, metrics.Disposition) // nil once it fired
	req       uint64
	enqueueAt sim.Time
	deadline  sim.Time // zero = no deadline
	timer     sim.Timer
	failed    bool // failed while queued; the slot is dropped lazily
	critical  bool
	released  bool // also set while the record is on the free list
	Ext       X    // the record's own state: a few flags fit the last word
	gen       uint64
	expire    func() // Kind.Timer's method value, bound when the record is built
}

// NewGate returns a gate of size >= 1 named name. codel (nil for none)
// sheds waiters at dequeue; owner is what Waiter.Owner returns.
func NewGate[E, X any](eng *sim.Engine, kind *Kind[E, X], name string, size int, codel *resilience.CoDel, owner any) *Gate[E, X] {
	g := &Gate[E, X]{eng: eng, kind: kind, name: name, owner: owner, codel: codel, l: Ledger{Size: size}}
	if kind.DepthBounds != nil {
		g.depths = metrics.NewHistogram(kind.DepthBounds)
	}
	if kind.WaitBounds != nil {
		g.grantWaits = metrics.NewHistogram(kind.WaitBounds)
	}
	return g
}

// Name returns the gate's name.
func (g *Gate[E, X]) Name() string { return g.name }

// InUse returns the units held by granted acquisitions, leaked ones
// excluded, so a drain waiting for zero completes under a leak.
func (g *Gate[E, X]) InUse() int { return g.l.Held }

// Waiting returns the number of live queued acquisitions.
func (g *Gate[E, X]) Waiting() int { return len(g.queue) - g.head - g.l.Dead }

// Free returns the admission headroom Size - InUse - Leaked.
func (g *Gate[E, X]) Free() int { return g.l.Size - g.l.Held - g.l.Leaked }

// DepthHistogram returns the queue depths arrivals saw (nil if not kept).
func (g *Gate[E, X]) DepthHistogram() *metrics.Histogram { return g.depths }

// WaitHistogram returns the grant waits in seconds (nil if not kept).
func (g *Gate[E, X]) WaitHistogram() *metrics.Histogram { return g.grantWaits }

// SetTracer attaches a request tracer (nil detaches) and the tier label
// of the gate's events. Tracing never changes scheduling.
func (g *Gate[E, X]) SetTracer(tr *trace.RequestTracer, tier string) {
	g.tracer = tr
	g.tier = tier
}

// SetInvariantChecker attaches a read-only invariant checker (nil detaches).
func (g *Gate[E, X]) SetInvariantChecker(c *invariant.Checker) { g.chk = c }

func (g *Gate[E, X]) subject() string { return g.kind.Noun + " " + g.name }

// CheckInvariant returns the first breach of the gate's accounting (nil
// when all hold): counts never negative, size at least 1, dead slots
// within the queue, grants = releases + held, the waiter cap respected,
// and no waiter queued while a unit is free. Held > Size is legal after a
// shrink, so it is checked at grant time instead.
func (g *Gate[E, X]) CheckInvariant() error {
	l := &g.l
	if l.Held < 0 || l.Leaked < 0 {
		return fmt.Errorf("%s: negative accounting: held %d, leaked %d", g.subject(), l.Held, l.Leaked)
	}
	if l.Size < 1 {
		return fmt.Errorf("%s: pool size %d below 1", g.subject(), l.Size)
	}
	if slots := len(g.queue) - g.head; l.Dead < 0 || l.Dead > slots {
		return fmt.Errorf("%s: dead-waiter accounting broken: queueDead %d outside [0, %d]", g.subject(), l.Dead, slots)
	}
	if l.Grants.Total() != l.Releases+uint64(l.Held) {
		return fmt.Errorf("%s: grants %d != releases %d + held %d", g.subject(), l.Grants.Total(), l.Releases, l.Held)
	}
	if cap := g.queueCap(); cap > 0 && g.Waiting() > cap {
		return fmt.Errorf("%s: %d waiters exceed cap %d", g.subject(), g.Waiting(), cap)
	}
	if g.Free() > 0 && g.Waiting() > 0 {
		return fmt.Errorf("%s: %d waiter(s) queued while %d unit(s) free", g.subject(), g.Waiting(), g.Free())
	}
	return nil
}

// Killed reports whether Kill was called.
func (g *Gate[E, X]) Killed() bool { return g.dead }

// Kill crashes the resource: every queued and every later acquisition
// fails with DispositionError. Held units stay held until released.
func (g *Gate[E, X]) Kill() {
	if g.dead {
		return
	}
	g.dead = true
	waiters := g.queue[g.head:]
	g.queue, g.head = nil, 0
	g.l.Dead = 0
	for _, rec := range waiters {
		w := g.kind.Header(rec)
		if !w.failed {
			w.timer.Cancel()
			g.fail(w, metrics.DispositionError)
		}
		g.recycle(rec, w)
	}
}

// Acquire requests a unit; fn runs as soon as one is available, in FIFO
// order behind earlier waiters. On a killed gate fn runs at once with nil.
func (g *Gate[E, X]) Acquire(fn func(*E)) {
	if fn == nil {
		return
	}
	g.AcquireDeadline(0, 0, func(rec *E, _ metrics.Disposition) { fn(rec) })
}

// AcquireDeadline is AcquireDeadlineCritical for best-effort traffic.
func (g *Gate[E, X]) AcquireDeadline(req uint64, deadline sim.Time, fn func(*E, metrics.Disposition)) {
	g.AcquireDeadlineCritical(req, deadline, false, fn)
}

// AcquireDeadlineCritical is Acquire with resilience semantics. req is
// the tracing request ID (0 = untraced); deadline (zero = none) is the
// request's absolute deadline, past which a waiter fails with
// DispositionTimeout without taking a unit; fn's disposition explains a
// nil record (error, rejected, shed or timeout). A critical acquisition is
// never shed and never touches the CoDel state, but still queues FIFO,
// bounces off a full queue and times out like any other.
func (g *Gate[E, X]) AcquireDeadlineCritical(req uint64, deadline sim.Time, critical bool, fn func(*E, metrics.Disposition)) {
	if fn == nil {
		return
	}
	if g.dead {
		fn(nil, metrics.DispositionError)
		return
	}
	now := g.eng.Now()
	if deadline > 0 && now >= deadline {
		g.timeouts.Inc(1)
		g.tracer.Record(req, trace.EventTimeout, g.tier, g.name, now)
		fn(nil, metrics.DispositionTimeout)
		return
	}
	if g.depths != nil {
		g.depths.Observe(float64(g.Waiting()))
	}
	if g.Free() > 0 && g.Waiting() == 0 {
		rec, w := g.take(fn, req, now, deadline, critical)
		g.tracer.Record(req, g.kind.Enter, g.tier, g.name, now)
		g.grant(rec, w)
		return
	}
	if g.maxWaiters > 0 && g.Waiting() >= g.maxWaiters {
		g.rejections.Inc(1)
		g.tracer.Record(req, trace.EventReject, g.tier, g.name, now)
		fn(nil, metrics.DispositionRejected)
		return
	}
	rec, w := g.take(fn, req, now, deadline, critical)
	g.tracer.Record(req, g.kind.Enter, g.tier, g.name, now)
	if deadline > 0 {
		w.timer = g.eng.Schedule(deadline-now, w.expire)
	}
	g.enqueue(rec)
}

// take returns a record for a new acquisition, from the free list when
// it has one. Only a record built here allocates, and it binds its timer
// body once.
func (g *Gate[E, X]) take(fn func(*E, metrics.Disposition), req uint64, now, deadline sim.Time, critical bool) (*E, *Waiter[E, X]) {
	var rec *E
	var w *Waiter[E, X]
	if n := len(g.free) - 1; n >= 0 {
		rec = g.free[n]
		g.free = g.free[:n]
		w = g.kind.Header(rec)
	} else {
		rec = new(E)
		w = g.kind.Header(rec)
		w.gate, w.expire = g, g.kind.Timer(rec)
	}
	w.fn, w.req, w.enqueueAt, w.deadline, w.critical, w.released = fn, req, now, deadline, critical, false
	return rec, w
}

// recycle resets a record that left the gate and puts it on the free
// list. It keeps the gate, the bound timer body and the generation,
// bumped, and stays released, so a second Release still panics.
func (g *Gate[E, X]) recycle(rec *E, w *Waiter[E, X]) {
	*w = Waiter[E, X]{gate: g, released: true, gen: w.gen + 1, expire: w.expire}
	g.free = append(g.free, rec)
}

// enqueue appends rec to the queue. When the array is full and the popped
// prefix is at least half of it, the live waiters slide to the front
// instead of the array growing.
func (g *Gate[E, X]) enqueue(rec *E) {
	if g.head > 0 && len(g.queue) == cap(g.queue) && 2*g.head >= len(g.queue) {
		n := copy(g.queue, g.queue[g.head:])
		clear(g.queue[n:])
		g.queue, g.head = g.queue[:n], 0
	}
	g.queue = append(g.queue, rec)
}

// grant hands one unit to a waiter, accounting the wait.
func (g *Gate[E, X]) grant(rec *E, w *Waiter[E, X]) {
	g.l.Held++
	g.l.Grants.Inc(1)
	now := g.eng.Now()
	if g.chk != nil {
		// Grants happen only while Free() > 0 (shrinks drain, they do not
		// grant), and never to an expired acquisition.
		if g.Free() < 0 {
			g.chk.Violatef(now, invariant.RulePoolAccounting, g.subject(), w.req,
				"grant raised held %d + leaked %d past size %d", g.l.Held, g.l.Leaked, g.l.Size)
		}
		if w.deadline > 0 && now >= w.deadline {
			g.chk.Violatef(now, invariant.RuleDeadline, g.subject(), w.req,
				"granted %v past the deadline", now-w.deadline)
		}
	}
	g.occupancy.Set(now, float64(g.l.Held+g.l.Leaked))
	if g.grantWaits != nil {
		g.grantWaits.Observe((now - w.enqueueAt).Seconds())
	}
	g.tracer.Record(w.req, g.kind.Exit, g.tier, g.name, now)
	fn := w.fn
	w.fn = nil
	fn(rec, metrics.DispositionOK)
}

// fail completes a waiter without a unit. Its wait is not a grant wait,
// so the grant histogram does not see it.
func (g *Gate[E, X]) fail(w *Waiter[E, X], disp metrics.Disposition) {
	fn := w.fn
	w.fn = nil
	fn(nil, disp)
}

// Expire is a queued waiter's deadline timer body (see Kind.Timer): it
// marks the slot failed, to be dropped lazily, and fails the acquisition.
func (w *Waiter[E, X]) Expire() {
	if w.failed {
		return
	}
	g := w.gate
	w.failed = true
	g.l.Dead++
	g.timeouts.Inc(1)
	g.tracer.Record(w.req, trace.EventTimeout, g.tier, g.name, g.eng.Now())
	g.fail(w, metrics.DispositionTimeout)
	g.maybeCompact()
}

// maybeCompact drops dead waiter slots once they dominate the queue,
// keeping Waiting O(1) without paying O(n) per timeout, and recycles
// their records.
func (g *Gate[E, X]) maybeCompact() {
	if g.l.Dead < 64 || g.l.Dead*2 < len(g.queue)-g.head {
		return
	}
	live := g.queue[:0]
	for _, rec := range g.queue[g.head:] {
		if w := g.kind.Header(rec); w.failed {
			g.recycle(rec, w)
		} else {
			live = append(live, rec)
		}
	}
	clear(g.queue[len(live):])
	g.queue, g.head = live, 0
	g.l.Dead = 0
}

// admit grants queued acquisitions while units are free, dropping the
// dead slots it meets and applying the grant-time deadline check and
// CoDel shedding. Every record it pops without a grant is recycled.
func (g *Gate[E, X]) admit() {
	for g.Free() > 0 && g.head < len(g.queue) {
		rec := g.queue[g.head]
		g.queue[g.head] = nil
		if g.head++; g.head == len(g.queue) {
			g.queue, g.head = g.queue[:0], 0
		}
		w := g.kind.Header(rec)
		if w.failed {
			g.l.Dead--
			g.recycle(rec, w)
			continue
		}
		w.timer.Cancel()
		now := g.eng.Now()
		// The deadline may expire at the very timestamp of the grant, with
		// the timer event still pending behind this one: the waiter must
		// fail, not take a unit it would have to give straight back.
		if w.deadline > 0 && now >= w.deadline {
			g.timeouts.Inc(1)
			g.tracer.Record(w.req, trace.EventTimeout, g.tier, g.name, now)
			g.fail(w, metrics.DispositionTimeout)
			g.recycle(rec, w)
			continue
		}
		if !w.critical && g.codel.Enabled() && g.codel.OnDequeue(now, w.enqueueAt) {
			g.sheds.Inc(1)
			g.tracer.Record(w.req, trace.EventShed, g.tier, g.name, now)
			g.fail(w, metrics.DispositionShed)
			g.recycle(rec, w)
			continue
		}
		g.grant(rec, w)
	}
}

// Release returns the unit rec holds, admits the next waiter and
// recycles rec; w must be rec's header. Releasing twice panics: the gate
// would admit more than its size.
func (w *Waiter[E, X]) Release(rec *E) {
	g := w.gate
	if w.released {
		panic(g.kind.Noun + ": released twice")
	}
	w.released = true
	g.l.Held--
	g.l.Releases++
	if g.chk != nil && g.l.Held < 0 {
		g.chk.Violatef(g.eng.Now(), invariant.RulePoolAccounting, g.subject(), w.req,
			"release drove held negative (%d)", g.l.Held)
	}
	g.occupancy.Set(g.eng.Now(), float64(g.l.Held+g.l.Leaked))
	g.admit()
	g.recycle(rec, w)
}

// Released reports whether Release was called.
func (w *Waiter[E, X]) Released() bool { return w.released }

// Req returns the acquisition's tracing request ID.
func (w *Waiter[E, X]) Req() uint64 { return w.req }

// Gen returns the record's generation, bumped each time it is recycled:
// a holder that kept the generation of its grant can tell a record handed
// on since from its own.
func (w *Waiter[E, X]) Gen() uint64 { return w.gen }

// Deadline returns the acquisition's deadline (zero = none).
func (w *Waiter[E, X]) Deadline() sim.Time { return w.deadline }

// Owner returns the gate's owner.
func (w *Waiter[E, X]) Owner() any { return w.gate.owner }

// Resize changes the size at runtime, clamped to >= 1. Growing admits
// waiters at once; shrinking drains as held units are released.
func (g *Gate[E, X]) Resize(n int) {
	if n < 1 {
		n = 1
	}
	g.l.Size = n
	g.admit()
}

// queueCap is the bound CheckInvariant holds the queue to: the waiter
// cap, or the grandfathered backlog until it drains under the cap.
func (g *Gate[E, X]) queueCap() int {
	if g.grace > 0 && g.Waiting() <= g.maxWaiters {
		g.grace = 0
	}
	if g.grace > g.maxWaiters {
		return g.grace
	}
	return g.maxWaiters
}

// SetMaxWaiters bounds the queue: an arrival finding n waiters is
// rejected with DispositionRejected; n <= 0 removes the bound. A cap below
// the live backlog evicts nobody: the backlog is grandfathered until it
// drains, while new arrivals meet the new cap at once.
func (g *Gate[E, X]) SetMaxWaiters(n int) {
	if n < 0 {
		n = 0
	}
	if n > 0 && g.Waiting() > n {
		if g.Waiting() > g.grace {
			g.grace = g.Waiting()
		}
	} else {
		g.grace = 0
	}
	g.maxWaiters = n
}

// Sample reports one monitoring interval of gate metrics. InUse,
// Waiting, Leaked and Size are instantaneous; MeanHeld is the
// time-weighted mean of held plus leaked units. Grants, TimedOut,
// Rejected and Shed count the interval's outcomes.
type Sample struct {
	Grants   uint64  `json:"grants"`
	MeanHeld float64 `json:"meanHeld"`
	InUse    int     `json:"inUse"`
	Waiting  int     `json:"waiting"`
	Leaked   int     `json:"leaked,omitempty"`
	Size     int     `json:"size"`
	TimedOut uint64  `json:"timedOut,omitempty"`
	Rejected uint64  `json:"rejected,omitempty"`
	Shed     uint64  `json:"shed,omitempty"`
}

// TakeSample returns the metrics accumulated since the previous call and
// starts a new interval.
func (g *Gate[E, X]) TakeSample() Sample {
	return Sample{
		Grants:   g.l.Grants.TakeDelta(),
		MeanHeld: g.occupancy.TakeAverage(g.eng.Now()),
		InUse:    g.l.Held,
		Waiting:  g.Waiting(),
		Leaked:   g.l.Leaked,
		Size:     g.l.Size,
		TimedOut: g.timeouts.TakeDelta(),
		Rejected: g.rejections.TakeDelta(),
		Shed:     g.sheds.TakeDelta(),
	}
}
