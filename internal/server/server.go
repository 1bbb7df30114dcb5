// Package server simulates one component server of an n-tier application —
// an Apache, Tomcat or MySQL instance — as a thread-pooled station on a
// discrete-event engine.
//
// The server's thread pool is the paper's central soft resource, a
// connpool.Gate: at most PoolSize requests hold a thread, the rest wait in
// a FIFO queue with deadlines, a bound and CoDel, exactly like DB
// connections, and the pool resizes at runtime without disturbing
// in-flight requests (the APP-agent's actuation primitive, §IV-B). A
// request holds its thread until released, including while it waits on
// downstream tiers (as Apache and Tomcat threads do). The gate recycles a
// released Session for a later acquisition, so a caller reads Killed and
// TimedOut before Release and never touches the session after. CPU bursts
// executed on a held thread follow the multi-threading service-time law
// of Equation 5,
//
//	S*(N) = S0 + α(N−1) + βN(N−1)
//
// evaluated at the server's current concurrency N, so both throughput
// collapse at high concurrency and under-utilization at low concurrency
// emerge from the simulation just as they do on the paper's testbed.
package server

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// Config describes a simulated server.
type Config struct {
	// Name identifies the server (e.g. "app-1"); required.
	Name string
	// Model is the Equation 5 service-time law for one CPU burst.
	Model model.Params
	// PoolSize is the initial thread pool size; must be >= 1.
	PoolSize int
	// NoiseSigma, if positive, applies mean-one lognormal noise to every
	// CPU burst, modeling real service-time variability.
	NoiseSigma float64
	// ThrashKnee and ThrashCoef model the super-quadratic collapse real
	// servers exhibit far past their concurrency optimum (lock convoys,
	// buffer-pool thrashing): beyond ThrashKnee concurrent requests, each
	// burst gains ThrashCoef·(N−ThrashKnee)² seconds. Equation 5 is a
	// deliberately *graceful* contention model; the thrash term is what
	// makes the simulated MySQL reproduce the steep decline of Fig. 2(a)
	// and the scale-out trap of Fig. 2(b). Zero ThrashKnee disables it.
	// ThrashCap bounds the extra seconds per burst (0 means uncapped);
	// real servers' degradation flattens once every request misses cache.
	ThrashKnee int
	ThrashCoef float64
	ThrashCap  float64
	// Distribution selects the burst-duration distribution around the
	// Equation 5 mean: deterministic (default) or exponential. Exponential
	// service makes the station BCMP-compatible, which the MVA
	// cross-validation tests rely on; deterministic matches the paper's
	// CPU-bound browse-only workload better.
	Distribution ServiceDistribution
	// BetaOnConfigured, when true, charges Equation 5's crosstalk term β
	// on the server's *configured* concurrency (SetConfiguredConcurrency)
	// instead of the instantaneous one. This models MySQL: every open
	// connection is a mysqld thread that participates in lock-manager and
	// buffer coherency traffic whether or not it is executing a query, so
	// the coherency cost follows the allocation (the paper's #A_C × #A),
	// while the scheduling-contention α and the thrash term follow actual
	// load.
	BetaOnConfigured bool
	// MaxQueue bounds the admission queue: a request arriving when
	// MaxQueue requests are already waiting is rejected immediately
	// (its callback runs with a nil session and DispositionRejected).
	// Zero means unbounded — the historical behaviour.
	MaxQueue int
	// CoDelTarget and CoDelInterval enable the CoDel-style on-dequeue
	// shedder (see resilience.CoDel): requests whose queue delay exceeds
	// the target for a sustained interval are shed at dequeue time instead
	// of being granted a thread. Zero CoDelTarget disables shedding.
	CoDelTarget   time.Duration
	CoDelInterval time.Duration
}

// ServiceDistribution selects the burst-duration distribution.
type ServiceDistribution int

// Service distributions.
const (
	// DistDeterministic uses the Equation 5 mean exactly.
	DistDeterministic ServiceDistribution = iota
	// DistExponential draws exponentially with the Equation 5 mean.
	DistExponential
)

// Errors returned by New.
var (
	ErrBadConfig = errors.New("server: invalid config")
)

// Server is a simulated component server. It must only be used from the
// simulation goroutine.
type Server struct {
	eng     *sim.Engine
	rnd     *rng.Rand
	name    string
	params  model.Params
	threads *connpool.Gate[Session, sessionFlags]

	accepting bool
	noise     float64

	thrashKnee int
	thrashCoef float64
	thrashCap  float64
	degrade    float64 // multiplier on the S0 work term; 1 = healthy
	executing  int
	betaOnConf bool
	configured int
	dist       ServiceDistribution

	cpu         metrics.BusyTracker
	completions metrics.Counter
	execTimes   metrics.MeanAccumulator
	preempts    metrics.Counter // bursts cut short by the deadline
	svcTimes    *metrics.Histogram

	tracer *trace.RequestTracer
	tier   string

	freeBursts *burst
}

// threadKind is the Kind of every server's thread pool. Bucket layouts
// are shared by every server so per-tier merges are well defined.
var (
	threadKind = connpool.Kind[Session, sessionFlags]{
		Noun:        "server",
		Enter:       trace.EventQueueEnter,
		Exit:        trace.EventQueueExit,
		DepthBounds: []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
		Header:      func(sess *Session) *connpool.Waiter[Session, sessionFlags] { return &sess.w },
		Timer:       func(sess *Session) func() { return sess.w.Expire },
	}
	svcTimeBounds = metrics.ExpBuckets(1e-4, 2, 20)
)

// New constructs a server on the given engine. rnd must be a dedicated
// stream (use rng.Rand.Split).
func New(eng *sim.Engine, rnd *rng.Rand, cfg Config) (*Server, error) {
	if eng == nil || rnd == nil {
		return nil, fmt.Errorf("%w: nil engine or rng", ErrBadConfig)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadConfig)
	}
	if cfg.PoolSize < 1 {
		return nil, fmt.Errorf("%w: pool size %d", ErrBadConfig, cfg.PoolSize)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.ThrashKnee < 0 || cfg.ThrashCoef < 0 || cfg.ThrashCap < 0 {
		return nil, fmt.Errorf("%w: negative thrash parameters", ErrBadConfig)
	}
	if cfg.MaxQueue < 0 || cfg.CoDelTarget < 0 || cfg.CoDelInterval < 0 {
		return nil, fmt.Errorf("%w: negative admission-control parameters", ErrBadConfig)
	}
	s := &Server{
		eng:        eng,
		rnd:        rnd,
		name:       cfg.Name,
		params:     cfg.Model,
		accepting:  true,
		noise:      cfg.NoiseSigma,
		thrashKnee: cfg.ThrashKnee,
		thrashCoef: cfg.ThrashCoef,
		thrashCap:  cfg.ThrashCap,
		degrade:    1,
		betaOnConf: cfg.BetaOnConfigured,
		dist:       cfg.Distribution,
		svcTimes:   metrics.NewHistogram(svcTimeBounds),
	}
	s.threads = connpool.NewGate(eng, &threadKind, cfg.Name, cfg.PoolSize,
		resilience.NewCoDel(cfg.CoDelTarget, cfg.CoDelInterval), s)
	s.threads.SetMaxWaiters(cfg.MaxQueue)
	return s, nil
}

// SetTracer attaches a request tracer (nil detaches) and the tier label
// of this server's events. Tracing never changes scheduling.
func (s *Server) SetTracer(tr *trace.RequestTracer, tier string) {
	s.tracer = tr
	s.tier = tier
	s.threads.SetTracer(tr, tier)
}

// SetInvariantChecker attaches an invariant checker (nil detaches). It is
// read-only, so checked and unchecked runs are byte-identical.
func (s *Server) SetInvariantChecker(c *invariant.Checker) { s.threads.SetInvariantChecker(c) }

// CheckInvariant returns the first breach of the thread pool's accounting
// (connpool.Gate.CheckInvariant) or of executing bursts <= held threads.
func (s *Server) CheckInvariant() error {
	if err := s.threads.CheckInvariant(); err != nil {
		return err
	}
	if s.executing < 0 || s.executing > s.Active() {
		return fmt.Errorf("server %s: executing %d outside [0, active %d]", s.name, s.executing, s.Active())
	}
	return nil
}

// QueueDepthHistogram returns the histogram of queue depths observed by
// arriving requests over the server's lifetime.
func (s *Server) QueueDepthHistogram() *metrics.Histogram { return s.threads.DepthHistogram() }

// ServiceTimeHistogram returns the histogram of completed burst durations
// (seconds) over the server's lifetime.
func (s *Server) ServiceTimeHistogram() *metrics.Histogram { return s.svcTimes }

// SetDegradeFactor scales the server's Equation 5 base service time S0 by
// f for every subsequent burst — the chaos "degraded server" fault (a
// noisy neighbour, failing disk, or thermal throttling). Factors below 1
// are clamped to 1: degradation only ever slows a server down, and 1
// restores health. The contention (α) and crosstalk (β) terms are
// untouched; they are properties of the software, not the hardware.
func (s *Server) SetDegradeFactor(f float64) {
	if f < 1 {
		f = 1
	}
	s.degrade = f
}

// DegradeFactor returns the current S0 multiplier (1 = healthy).
func (s *Server) DegradeFactor() float64 { return s.degrade }

// Session is one acquisition of a server thread: the waiter while queued,
// the admitted request holding the thread once granted. It is the gate's
// header alone; its own flags ride in the header's spare word.
type Session struct {
	w connpool.Waiter[Session, sessionFlags]
}

type sessionFlags struct {
	executing bool
	timedOut  bool // a burst was preempted by the deadline
}

// server returns the server whose thread the session holds.
func (sess *Session) server() *Server { return sess.w.Owner().(*Server) }

// burst is one CPU burst in flight: its session, its callback, its Eq. 5
// duration and whether the deadline cuts it short. Bursts are never
// canceled, so each record goes back to the server's free list the
// moment its event fires; fire is bound once, when the record is built,
// so a burst allocates nothing at steady state.
type burst struct {
	sess    *Session
	onDone  func()
	d       time.Duration
	preempt bool
	fire    func()
	next    *burst
}

// TimedOut reports whether a burst on this session was preempted by the
// deadline; the caller must fail the request.
func (sess *Session) TimedOut() bool { return sess.w.Ext.timedOut }

// Gen returns the session record's generation (see connpool.Waiter.Gen).
func (sess *Session) Gen() uint64 { return sess.w.Gen() }

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Params returns the server's service-time law.
func (s *Server) Params() model.Params { return s.params }

// PoolSize returns the current thread pool size.
func (s *Server) PoolSize() int { return s.threads.Size() }

// Active returns the number of admitted (thread-holding) requests.
func (s *Server) Active() int { return s.threads.InUse() }

// QueueLen returns the number of requests waiting for a thread. Timed-out
// waiters whose slots have not been compacted yet do not count.
func (s *Server) QueueLen() int { return s.threads.Waiting() }

// Accepting reports whether the server is taking new work (load balancers
// skip non-accepting servers; in-flight work is unaffected).
func (s *Server) Accepting() bool { return s.accepting }

// SetAccepting marks the server as accepting or draining.
func (s *Server) SetAccepting(v bool) { s.accepting = v }

// Kill crashes the server: it stops accepting work, every queued request
// fails with a nil session, and in-flight bursts "complete" but
// Session.Killed reports true so the request flow can fail them, modeling
// connections torn down by a crashed process. Kill is idempotent.
func (s *Server) Kill() {
	if s.threads.Killed() {
		return
	}
	s.accepting = false
	s.threads.Kill()
}

// Killed reports whether the session's server crashed; work completed on a
// killed session is lost and the request must be failed.
func (sess *Session) Killed() bool { return sess.server().threads.Killed() }

// Acquire requests a thread. fn is invoked with the session as soon as a
// thread is available — immediately if the pool has room, otherwise in FIFO
// order as threads free up. On a dead server fn is invoked immediately
// with a nil session: the caller must treat that as a failed request.
func (s *Server) Acquire(fn func(*Session)) {
	if fn == nil {
		return
	}
	// Not s.threads.Acquire: its closure, made in generic code, would
	// also capture the dictionary (24 bytes instead of 16).
	s.AcquireDeadlineCritical(0, 0, false, func(sess *Session, _ metrics.Disposition) { fn(sess) })
}

// AcquireDeadlineCritical is Acquire with the resilience semantics of
// connpool.Gate.AcquireDeadlineCritical. Critical requests (high-priority
// traffic classes) are never shed by CoDel, so load shedding sacrifices
// best-effort traffic first.
func (s *Server) AcquireDeadlineCritical(req uint64, deadline sim.Time, critical bool, fn func(*Session, metrics.Disposition)) {
	s.threads.AcquireDeadlineCritical(req, deadline, critical, fn)
}

// SetPoolSize resizes the thread pool at runtime (clamped to >= 1).
// Growing admits waiters at once; shrinking never interrupts in-flight
// requests, the pool drains down to the new size as they complete.
func (s *Server) SetPoolSize(n int) { s.threads.Resize(n) }

// MaxQueue returns the current admission cap (0 = unbounded).
func (s *Server) MaxQueue() int { return s.threads.MaxWaiters() }

// SetMaxQueue changes the admission cap at runtime (0 = unbounded). A cap
// below the live backlog evicts nobody; new arrivals meet it at once.
func (s *Server) SetMaxQueue(n int) { s.threads.SetMaxWaiters(n) }

// Exec runs one CPU burst on the session's thread and invokes onDone when
// it completes. The burst duration is the Equation 5 service time at the
// server's concurrency when the burst starts. Exec on a released session
// or a session already executing is a programming error and panics — it
// would silently corrupt concurrency accounting otherwise.
func (sess *Session) Exec(onDone func()) {
	sess.ExecDemand(1, onDone)
}

// ExecDemand is Exec with the burst's base demand scaled by demand: the
// servlet mix of a real application issues requests with different service
// demands, and demand scales the S0 work term while the contention and
// crosstalk penalties — properties of the server's state, not of the
// request — stay as they are. Non-positive demands are clamped to a
// negligible positive amount.
func (sess *Session) ExecDemand(demand float64, onDone func()) {
	if sess.w.Released() {
		panic("server: Exec on released session")
	}
	if sess.w.Ext.executing {
		panic("server: Exec on session already executing")
	}
	if demand <= 0 {
		demand = 1e-9
	}
	s := sess.server()
	sess.w.Ext.executing = true
	s.executing++
	d := s.burstDuration(demand)
	now := s.eng.Now()
	// Deadline preemption: a burst that would finish past the request's
	// deadline is cut short at the deadline instead — the thread and CPU are
	// given back at the deadline, not when the doomed work would have
	// finished, so a timed-out request never occupies resources past its
	// deadline. The truncated burst counts as neither a completion nor a
	// service-time observation; the caller sees TimedOut() and must fail the
	// request.
	b := s.freeBursts
	if b == nil {
		b = &burst{}
		b.fire = b.end
	} else {
		s.freeBursts = b.next
	}
	b.sess, b.onDone, b.d = sess, onDone, d
	deadline := sess.w.Deadline()
	b.preempt = deadline > 0 && now+d > deadline
	run := d
	if b.preempt {
		run = deadline - now
	}
	s.tracer.Record(sess.w.Req(), trace.EventServiceStart, s.tier, s.name, now)
	s.cpu.Enter(now)
	s.eng.Schedule(run, b.fire)
}

// end completes the burst, recycles the record and runs its callback.
func (b *burst) end() {
	sess, onDone, d, preempt := b.sess, b.onDone, b.d, b.preempt
	s := sess.server()
	b.sess, b.onDone = nil, nil
	b.next = s.freeBursts
	s.freeBursts = b
	s.cpu.Exit(s.eng.Now())
	sess.w.Ext.executing = false
	s.executing--
	if preempt {
		sess.w.Ext.timedOut = true
		s.preempts.Inc(1)
		s.tracer.Record(sess.w.Req(), trace.EventTimeout, s.tier, s.name, s.eng.Now())
	} else {
		s.completions.Inc(1)
		s.execTimes.Observe(d.Seconds())
		s.svcTimes.Observe(d.Seconds())
		s.tracer.Record(sess.w.Req(), trace.EventServiceEnd, s.tier, s.name, s.eng.Now())
	}
	if onDone != nil {
		onDone()
	}
}

// burstDuration samples the Equation 5 service time at current concurrency
// (plus the thrash penalty past the knee), with optional mean-one lognormal
// noise. demand scales the S0 work term.
func (s *Server) burstDuration(demand float64) time.Duration {
	n := s.Active()
	base := s.params.ServiceTime(float64(n)) + (demand-1)*s.params.S0
	if s.degrade > 1 {
		// Degraded hardware inflates the per-burst work term S0 (scaled by
		// the request's demand) while contention penalties stay put.
		base += (s.degrade - 1) * s.params.S0 * demand
	}
	if s.betaOnConf && s.configured > 0 {
		// Swap the instantaneous crosstalk for the configured-concurrency
		// crosstalk.
		nf := float64(n)
		if nf < 1 {
			nf = 1
		}
		cf := float64(s.configured)
		base += s.params.Beta * (cf*(cf-1) - nf*(nf-1))
	}
	if s.thrashKnee > 0 && n > s.thrashKnee {
		over := float64(n - s.thrashKnee)
		extra := s.thrashCoef * over * over
		if s.thrashCap > 0 && extra > s.thrashCap {
			extra = s.thrashCap
		}
		base += extra
	}
	if s.noise > 0 {
		base *= s.rnd.LogNormal(-s.noise*s.noise/2, s.noise)
	}
	if s.dist == DistExponential {
		base = s.rnd.Exp(base)
	}
	if base < 0 {
		base = 0
	}
	return time.Duration(base * float64(time.Second))
}

// SetConfiguredConcurrency records the externally allocated concurrency
// (e.g. the total upstream connection-pool size routed to this server)
// used by the BetaOnConfigured crosstalk model. Zero falls back to the
// instantaneous concurrency.
func (s *Server) SetConfiguredConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	s.configured = n
}

// Release returns the session's thread and admits the next waiter. The
// gate then recycles the session for a later acquisition, so the caller
// must not touch it again. Releasing twice, or while executing, panics.
func (sess *Session) Release() {
	if sess.w.Ext.executing {
		panic("server: Release while executing")
	}
	sess.w.Release(sess)
}

// Sample is one monitoring interval's worth of server metrics — what the
// paper's fine-grained monitoring agent reports every second. Completions
// counts the interval's finished CPU bursts and MeanExecSeconds is their
// mean duration (0 when none); Utilization is the CPU busy fraction. The
// thread fields are the pool's connpool.Sample under their server names:
// MeanQueueWaitSeconds, MeanConcurrency (time-weighted active threads),
// Active, QueueLen, QueuePeak and PoolSize. TimedOut (queued, at grant or
// mid-burst), Rejected and Shed count resilience outcomes and are absent
// from JSON when zero.
type Sample struct {
	Completions          uint64  `json:"completions"`
	MeanExecSeconds      float64 `json:"meanExecSeconds"`
	MeanQueueWaitSeconds float64 `json:"meanQueueWaitSeconds"`
	Utilization          float64 `json:"utilization"`
	MeanConcurrency      float64 `json:"meanConcurrency"`
	Active               int     `json:"active"`
	QueueLen             int     `json:"queueLen"`
	QueuePeak            int     `json:"queuePeak"`
	PoolSize             int     `json:"poolSize"`
	TimedOut             uint64  `json:"timedOut,omitempty"`
	Rejected             uint64  `json:"rejected,omitempty"`
	Shed                 uint64  `json:"shed,omitempty"`
}

// TakeSample returns the metrics accumulated since the previous TakeSample
// call and starts a new interval.
func (s *Server) TakeSample() Sample {
	now := s.eng.Now()
	execMean, _ := s.execTimes.TakeMean()
	t := s.threads.TakeSample()
	return Sample{
		Completions:          s.completions.TakeDelta(),
		MeanExecSeconds:      execMean,
		MeanQueueWaitSeconds: t.MeanWaitSeconds,
		Utilization:          s.cpu.TakeUtilization(now),
		MeanConcurrency:      t.MeanHeld,
		Active:               t.InUse,
		QueueLen:             t.Waiting,
		QueuePeak:            t.Peak,
		PoolSize:             t.Size,
		TimedOut:             t.TimedOut + s.preempts.TakeDelta(),
		Rejected:             t.Rejected,
		Shed:                 t.Shed,
	}
}
