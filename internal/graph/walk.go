package graph

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/invariant"
	"dcm/internal/lb"
	"dcm/internal/metrics"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// This file is the request walk: how one injected request travels the
// DAG. The control flow is a mechanical generalization of the chain walk
// internal/ntier carried since PR 1 — for a 3-node linear topology the
// sequence of picks, acquisitions, bursts, releases and records is
// bit-for-bit the same, which is what keeps every pre-refactor sha256
// digest valid.
//
// A request is one request record plus one hop frame per node visit.
// Both come from per-App free lists and carry generation stamps, the way
// the sim arena recycles events. The callbacks a frame hands to the
// server, the connection pool and the engine are method values bound once
// when the frame is first built, so a hop allocates nothing.

// request is the state every hop of one request shares. Async deliveries
// use a record of their own: their outcome goes to the async ledger, not
// to the request tallies.
type request struct {
	a        *App
	id       uint64 // request-tracer ID (0 = untraced)
	start    sim.Time
	deadline sim.Time // zero = none
	class    int      // index into Config.Classes, -1 for the classless flow
	cls      *Class
	prof     *resolvedProfile // the profile the walk runs under
	session  uint64
	critical bool
	done     func(rt time.Duration, ok bool)
	async    *edge // the async edge a delivery record consumes from

	gen       uint64 // bumped on every recycle
	next      *request
	deliverFn func() // r.deliver, bound on first use
}

// hopWait is the one callback a hop frame awaits.
type hopWait uint8

const (
	waitNone   hopWait = iota
	waitConn           // a connection-pool grant
	waitThread         // a server thread
	waitBurst          // the CPU burst
	waitCalls          // calls in flight on the current out-edge
)

var hopWaitNames = [...]string{"nothing", "a connection", "a thread", "a burst", "downstream calls"}

func (w hopWait) String() string { return hopWaitNames[w] }

// hop is one visit of a node: the member it picked, the thread and
// upstream connection it holds, and the walk over the node's out-edges.
// A frame belongs to the request from the moment it is issued until it
// reports its disposition upward; it is recycled right before that
// report, after its last callback fired. parent is nil for the entry
// visit and for async deliveries, which report to their request record.
type hop struct {
	a      *App
	r      *request
	rgen   uint64
	parent *hop
	pgen   uint64
	index  int   // branch index of a parallel call, call number-1 of a serial one
	n      *node // the node visited
	e      *edge // the edge the call came over; nil for entry and async visits
	m      *Member
	// The thread and upstream connection the visit holds, with the
	// generations of their grants: the gates recycle both records on
	// Release, so a release behind a stale generation is caught.
	sess    *server.Session
	sessGen uint64
	conn    *connpool.Conn
	connGen uint64
	start   sim.Time // opens the residence window (before any pool wait)
	wait    hopWait

	// The out-edge walk: the current edge, calls finished on a serial
	// edge, branches still running on a parallel one and the lowest
	// failing branch with its disposition.
	pos      int
	issued   int
	pending  int
	failAt   int
	failDisp metrics.Disposition

	gen        uint64 // bumped on every recycle
	next       *hop
	acquiredFn func(*server.Session, metrics.Disposition)
	burstFn    func()
	grantedFn  func(*connpool.Conn, metrics.Disposition)
}

// noBranch marks a parallel join with no failed branch.
const noBranch = int(^uint(0) >> 1)

// newRequest takes a request record from the free list.
func (a *App) newRequest() *request {
	r := a.freeReqs
	if r == nil {
		return &request{a: a, class: -1}
	}
	a.freeReqs = r.next
	r.next = nil
	return r
}

// freeRequest retires a record to the free list, invalidating every
// handle to it.
func (a *App) freeRequest(r *request) {
	*r = request{a: a, class: -1, gen: r.gen + 1, next: a.freeReqs, deliverFn: r.deliverFn}
	a.freeReqs = r
}

// newHop takes a frame from the free list for a visit of n on behalf of
// r, reached over e (nil for entry and async visits) from parent.
func (a *App) newHop(r *request, parent *hop, index int, n *node, e *edge) *hop {
	f := a.freeHops
	if f == nil {
		f = &hop{a: a}
		f.acquiredFn = f.acquired
		f.burstFn = f.burstDone
		f.grantedFn = f.granted
	} else {
		a.freeHops = f.next
		f.next = nil
	}
	f.r, f.rgen = r, r.gen
	if parent != nil {
		f.parent, f.pgen = parent, parent.gen
	}
	f.index, f.n, f.e = index, n, e
	f.start = a.eng.Now()
	return f
}

// freeHop retires a frame to the free list, invalidating every handle to
// it and keeping its bound callbacks.
func (a *App) freeHop(f *hop) {
	*f = hop{
		a: a, gen: f.gen + 1, next: a.freeHops,
		acquiredFn: f.acquiredFn, burstFn: f.burstFn, grantedFn: f.grantedFn,
	}
	a.freeHops = f
}

// misfire reports a callback that landed on a frame or record not
// awaiting it — recycled, fired twice or behind a stale generation. It is
// a conservation violation: the walk would count a visit twice or lose
// it. Without a checker attached it panics, like a double Release.
func (a *App) misfire(format string, args ...any) {
	if a.chk == nil {
		panic("graph: " + fmt.Sprintf(format, args...))
	}
	a.chk.Violatef(a.eng.Now(), invariant.RuleConservation, "graph", 0, format, args...)
}

// expect reports whether f awaits want, clearing the wait so a second
// firing is caught.
func (f *hop) expect(want hopWait, what string) bool {
	if f.wait != want {
		f.a.misfire("%s landed on a hop frame awaiting %v", what, f.wait)
		return false
	}
	f.wait = waitNone
	return true
}

// deadlineFor computes the absolute deadline for a request arriving at
// start (zero when request timeouts are off).
func (a *App) deadlineFor(start sim.Time) sim.Time {
	if a.res.RequestTimeout <= 0 {
		return 0
	}
	return start + a.res.RequestTimeout
}

// pickDisposition classifies a balancer Pick error: a guard refusal is a
// breaker-open outcome, anything else a plain error (node down).
func pickDisposition(err error) metrics.Disposition {
	if errors.Is(err, lb.ErrGuarded) {
		return metrics.DispositionBreakerOpen
	}
	return metrics.DispositionError
}

// breakerAttempt consumes a breaker admission for the member (half-open
// probe accounting); true when the call may proceed. Always true when
// breakers are off.
func (a *App) breakerAttempt(m *Member) bool {
	return m.breaker == nil || m.breaker.Attempt(a.eng.Now())
}

// breakerRecord feeds a call outcome to the member's breaker. Only
// genuine backend verdicts count: OK is a success, errors and timeouts
// are failures. Backpressure verdicts (rejected, shed, a downstream
// breaker refusing) bypass the failure window — shedding is the admission
// layer doing its job, not evidence this backend is sick.
func (a *App) breakerRecord(m *Member, disp metrics.Disposition) {
	br := m.breaker
	if br == nil {
		return
	}
	switch disp {
	case metrics.DispositionOK:
		br.Record(a.eng.Now(), true)
	case metrics.DispositionError, metrics.DispositionTimeout:
		br.Record(a.eng.Now(), false)
	default:
		br.RecordNeutral()
	}
}

// Inject sends one request through the graph's entry node. done
// (optional) is invoked on completion with the end-to-end response time
// and whether the request succeeded. With weighted classes configured,
// the request's class is drawn by weight. When resilience is configured
// the request carries an absolute deadline across every hop; its outcome
// is tallied as a disposition and, when it completes within the goodput
// SLA, as a good completion.
func (a *App) Inject(done func(rt time.Duration, ok bool)) {
	a.InjectClass(-1, 0, done)
}

// InjectClass is Inject for class-mixed workloads: class indexes the
// configured Classes (any out-of-range value, canonically -1, draws the
// class by weight when the classes are weighted and otherwise injects the
// classless flow), and session, when non-zero, is a session-affinity key
// — the entry node then picks the session's rendezvous-hashed home
// backend instead of rotating. A classless, sessionless call is
// byte-identical to Inject.
func (a *App) InjectClass(class int, session uint64, done func(rt time.Duration, ok bool)) {
	if a.classWeight > 0 && (class < 0 || class >= len(a.classProfiles)) {
		class = a.pickClass()
	}
	r := a.newRequest()
	r.start = a.eng.Now()
	r.deadline = a.deadlineFor(r.start)
	r.session = session
	r.done = done
	a.inFlight++
	a.injected++
	r.prof = &a.defaultPr
	if class >= 0 && class < len(a.cfg.Classes) {
		r.class = class
		r.cls = &a.cfg.Classes[class]
		r.prof = &a.classProfiles[class]
		a.classes[class].injected++
		a.classes[class].inFlight++
	}
	r.critical = r.cls != nil && r.cls.Priority > 0
	r.id = a.reqTracer.Begin()
	a.reqTracer.Record(r.id, trace.EventArrive, "", "", r.start)
	if r.cls != nil {
		a.reqTracer.RecordClass(r.id, r.cls.Name, r.start)
	}

	// Brownout front-door shed: while the degrade controller holds a shed
	// ratio, best-effort arrivals are dropped before they touch the entry
	// node. Critical (Priority > 0) classes are never brownout-shed.
	if a.brownoutShed > 0 && !r.critical && a.brownoutTake() {
		a.brownoutSheds++
		if r.cls != nil {
			a.classes[class].bshed++
		}
		a.reqTracer.Record(r.id, trace.EventShed, "", "", a.eng.Now())
		r.finish(metrics.DispositionShed)
		return
	}

	a.newHop(r, nil, 0, a.entry, nil).visit()
}

// finish tallies the request's outcome, recycles the record and runs the
// caller's completion callback.
func (r *request) finish(disp metrics.Disposition) {
	a := r.a
	if r.async != nil {
		a.asyncInFlight--
		a.asyncDisp.Observe(disp)
		a.freeRequest(r)
		return
	}
	ok := disp == metrics.DispositionOK
	a.inFlight--
	if a.chk != nil && a.inFlight < 0 {
		a.chk.Violatef(a.eng.Now(), invariant.RuleConservation, "graph", r.id,
			"request finish drove in-flight negative (%d)", a.inFlight)
	}
	rt := a.eng.Now() - r.start
	kind := trace.EventDone
	if !ok {
		kind = trace.EventFail
	}
	a.reqTracer.Record(r.id, kind, "", "", a.eng.Now())
	a.disp.Observe(disp)
	if ok {
		a.rts.Observe(rt.Seconds())
		a.rtWindow = append(a.rtWindow, rt.Seconds())
		if a.res.Enabled() {
			if sla := a.res.GoodputSLA(); sla <= 0 || rt <= sla {
				a.good.Inc(1)
			}
		}
	}
	if r.cls != nil {
		st := &a.classes[r.class]
		st.inFlight--
		st.disp.Observe(disp)
		if ok {
			st.rtSum += rt.Seconds()
			// The class SLO overrides the global goodput SLA; without
			// one, fall back to the resilience-wide threshold.
			sla := r.cls.SLO
			if sla <= 0 {
				sla = a.res.GoodputSLA()
			}
			if sla <= 0 || rt <= sla {
				st.good++
			}
		}
	} else {
		a.unclassedDisp.Observe(disp)
	}
	done := r.done
	a.freeRequest(r)
	if done != nil {
		done(rt, ok)
	}
}

// visit runs the visit of f's node: count it on the node's ledger, pick
// a member and ask it for a thread. The entry node honours session
// affinity. A call over a pooled edge arrives holding its connection,
// which every exit gives back.
func (f *hop) visit() {
	a, n := f.a, f.n
	n.started++
	n.inFlight++
	var m *Member
	var err error
	if f.e == nil && n.entry && f.r.session != 0 {
		m, err = n.balancer.PickSession(f.r.session)
	} else {
		m, err = n.balancer.Pick()
	}
	if err != nil {
		f.releaseConn()
		if errors.Is(err, lb.ErrGuarded) {
			a.reqTracer.Record(f.r.id, trace.EventBreakerOpen, n.spec.Name, "", a.eng.Now())
		}
		f.end(pickDisposition(err))
		return
	}
	if !a.breakerAttempt(m) {
		f.releaseConn()
		a.reqTracer.Record(f.r.id, trace.EventBreakerOpen, n.spec.Name, m.Name(), a.eng.Now())
		f.end(metrics.DispositionBreakerOpen)
		return
	}
	f.m = m
	f.wait = waitThread
	m.srv.AcquireDeadlineCritical(f.r.id, f.r.deadline, f.r.critical, f.acquiredFn)
}

// acquired is the server's answer: run the burst on the granted thread,
// or end the visit with the refusal.
func (f *hop) acquired(sess *server.Session, disp metrics.Disposition) {
	if !f.expect(waitThread, "thread grant") {
		return
	}
	if sess == nil {
		f.releaseConn()
		f.a.breakerRecord(f.m, disp)
		f.end(disp)
		return
	}
	f.sess, f.sessGen = sess, sess.Gen()
	f.wait = waitBurst
	sess.ExecDemand(f.r.prof.demand[f.n.idx], f.burstFn)
}

// burstDone follows the burst: a leaf call reads its verdict on the
// spot, a crashed backend taking precedence over a deadline preemption
// (the chain's DB-query semantics); any other visit fails on a
// preemption and otherwise descends its out-edges with the thread held.
func (f *hop) burstDone() {
	if !f.expect(waitBurst, "burst completion") {
		return
	}
	sess := f.sess
	if f.e != nil && len(f.n.outs) == 0 && !f.n.isCache() {
		killed, timedOut := sess.Killed(), sess.TimedOut()
		f.release()
		switch {
		case killed:
			f.close(metrics.DispositionError)
		case timedOut:
			f.close(metrics.DispositionTimeout)
		default:
			f.close(metrics.DispositionOK)
		}
		return
	}
	if sess.TimedOut() {
		f.release()
		f.close(metrics.DispositionTimeout)
		return
	}
	// A cache hit short-circuits: the reply is served locally and no
	// out-edge is visited.
	if f.n.isCache() && f.a.cacheLookup(f.n) {
		f.descended(metrics.DispositionOK)
		return
	}
	f.walk()
}

// walk runs the out-edges from f.pos in declaration order, each to
// completion before the next starts. It returns as soon as an edge has
// calls in flight; the last of them resumes it through childDone.
func (f *hop) walk() {
	for ; f.pos < len(f.n.outs); f.pos++ {
		e := f.n.outs[f.pos]
		visits := f.r.prof.visits[e.idx]
		switch {
		case e.spec.Kind == EdgeAsync:
			f.a.fireAsync(e, visits, f.r.prof)
			continue
		case visits <= 0:
			continue
		case f.expired():
			f.descended(metrics.DispositionTimeout)
			return
		}
		f.wait = waitCalls
		if e.spec.Kind == EdgeParallel {
			// Every branch runs to completion, then the join reports the
			// lowest failed branch's disposition, or OK.
			f.pending, f.failAt = visits, noBranch
			for i := 0; i < visits; i++ {
				f.call(e, i)
			}
			return
		}
		// Serial: one call at a time, the deadline checked before each.
		f.issued = 0
		f.call(e, 0)
		return
	}
	f.descended(metrics.DispositionOK)
}

// expired reports whether the request's deadline has passed.
func (f *hop) expired() bool {
	return f.r.deadline > 0 && f.a.eng.Now() >= f.r.deadline
}

// childDone takes the outcome of call index on the current out-edge. A
// failed edge aborts the rest of the walk.
func (f *hop) childDone(gen uint64, index int, disp metrics.Disposition) {
	if f.gen != gen || f.wait != waitCalls {
		f.a.misfire("call completion landed on a hop frame awaiting %v (generation %d, handle %d)",
			f.wait, f.gen, gen)
		return
	}
	e := f.n.outs[f.pos]
	if e.spec.Kind == EdgeParallel {
		if disp != metrics.DispositionOK && index < f.failAt {
			f.failAt, f.failDisp = index, disp
		}
		if f.pending--; f.pending > 0 {
			return
		}
		if f.failAt != noBranch {
			f.descended(f.failDisp)
			return
		}
	} else {
		if disp != metrics.DispositionOK {
			f.descended(disp)
			return
		}
		if f.issued++; f.issued < f.r.prof.visits[e.idx] {
			if f.expired() {
				f.descended(metrics.DispositionTimeout)
				return
			}
			f.call(e, f.issued)
			return
		}
	}
	f.pos++
	f.walk()
}

// descended ends a visit whose out-edge walk finished: a member that
// crashed under the visit turns an OK into an error.
func (f *hop) descended(disp metrics.Disposition) {
	f.wait = waitNone
	killed := f.sess.Killed()
	f.release()
	if disp == metrics.DispositionOK && killed {
		disp = metrics.DispositionError
	}
	f.close(disp)
}

// call issues call index over edge e from f's member: acquire a
// connection when the edge is pooled (the callee's residence window opens
// before the pool wait), then visit the destination.
func (f *hop) call(e *edge, index int) {
	c := f.a.newHop(f.r, f, index, e.dst, e)
	if !e.pooled() {
		c.visit()
		return
	}
	c.wait = waitConn
	f.m.pools[e.pos].AcquireDeadline(f.r.id, f.r.deadline, c.grantedFn)
}

// granted is the connection pool's answer. A refused call never reached
// its node, so it reports upward without touching the node's ledger.
func (f *hop) granted(conn *connpool.Conn, disp metrics.Disposition) {
	if !f.expect(waitConn, "connection grant") {
		return
	}
	if conn == nil {
		f.report(disp)
		return
	}
	f.conn, f.connGen = conn, conn.Gen()
	f.visit()
}

// release gives back the visit's thread and upstream connection and
// closes its residence window. The records are recycled, so the frame
// reads what it needs of them first.
func (f *hop) release() {
	if f.sess.Gen() != f.sessGen {
		f.a.misfire("thread release behind a recycled session (generation %d, handle %d)", f.sess.Gen(), f.sessGen)
	} else {
		f.sess.Release()
	}
	f.releaseConn()
	f.n.res.Observe((f.a.eng.Now() - f.start).Seconds())
}

func (f *hop) releaseConn() {
	if f.conn == nil {
		return
	}
	if f.conn.Gen() != f.connGen {
		f.a.misfire("connection release behind a recycled connection (generation %d, handle %d)", f.conn.Gen(), f.connGen)
	} else {
		f.conn.Release()
	}
	f.conn = nil
}

// close feeds the verdict to the member's breaker and ends the visit.
func (f *hop) close(disp metrics.Disposition) {
	f.a.breakerRecord(f.m, disp)
	f.end(disp)
}

// end closes the visit on its node's ledger: counted when it started,
// its disposition lands exactly once.
func (f *hop) end(disp metrics.Disposition) {
	f.n.inFlight--
	f.n.visits.Observe(disp)
	f.report(disp)
}

// report recycles the frame and hands disp to whoever issued it: the
// parent frame, or the request record for entry and async visits. The
// frame is never touched again.
func (f *hop) report(disp metrics.Disposition) {
	a, r, rgen, parent, pgen, index := f.a, f.r, f.rgen, f.parent, f.pgen, f.index
	a.freeHop(f)
	if parent != nil {
		parent.childDone(pgen, index, disp)
		return
	}
	if r.gen != rgen {
		a.misfire("request completion landed on a recycled record (generation %d, handle %d)", r.gen, rgen)
		return
	}
	r.finish(disp)
}
