package graph

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dcm/internal/bus"
	"dcm/internal/connpool"
	"dcm/internal/invariant"
	"dcm/internal/lb"
	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// Errors returned by the application.
var (
	ErrBadConfig     = errors.New("graph: invalid config")
	ErrUnknownNode   = errors.New("graph: unknown node")
	ErrUnknownMember = errors.New("graph: unknown member")
	ErrLastMember    = errors.New("graph: cannot remove the last member of a node")
)

// Config describes a graph application: the topology plus the knobs that
// apply uniformly across it.
type Config struct {
	// Spec is the validated topology.
	Spec Spec
	// NoiseSigma adds mean-one lognormal noise to every burst.
	NoiseSigma float64
	// Policy selects the load-balancing policy (default round-robin).
	Policy lb.Policy
	// Resilience configures the data-plane resilience features: request
	// deadlines propagated across every hop, per-backend circuit breakers
	// at the non-entry nodes, bounded admission queues and CoDel shedding.
	Resilience resilience.Config
	// Classes, when non-empty, enables request classes: injected by index
	// through InjectClass when every Weight is zero, drawn by weight on
	// Inject when every Weight is positive.
	Classes []Class
}

// node is one service of the graph: a balancer over replicas plus the
// node's out-edges and ledger. The balancer is the node's only registry
// of its members, kept in registration order.
type node struct {
	spec     NodeSpec
	idx      int
	entry    bool
	balancer *lb.Balancer[*Member]
	nameSeq  int // auto-named members created so far ("app-1", "app-2", …)
	outs     []*edge
	ins      []*edge
	threads  int

	// res accumulates per-visit residence time (queue wait + burst + held
	// downstream calls).
	res metrics.MeanAccumulator

	// Per-node conservation ledger: every visit targeting the node is
	// counted when it starts and again when its disposition lands, so
	// started = dispositions + inFlight at all times.
	started  uint64
	inFlight int
	visits   metrics.DispositionCounts

	// Cache state (cache kind only).
	lru          *lruCache
	hits, misses uint64
}

func (n *node) isCache() bool { return n.spec.Kind == KindCache }

// edge is one directed dependency, with its live pool size and (for async
// edges) bus plumbing.
type edge struct {
	spec     EdgeSpec
	idx      int // index into App.edges
	pos      int // index into src.outs (and Member.pools)
	src, dst *node
	poolSize int
	key      string // "from->to"
	topic    string
	consumer *bus.Consumer
}

func (e *edge) pooled() bool { return e.poolSize > 0 }

// Member is one replica of a node, together with the connection pools
// guarding its pooled out-edges and the circuit breaker guarding calls
// into it.
type Member struct {
	srv     *server.Server
	node    *node
	pools   []*connpool.Pool    // parallel to node.outs; nil for unpooled edges
	breaker *resilience.Breaker // nil at the entry node or with breakers off
}

// Name returns the member's server name.
func (m *Member) Name() string { return m.srv.Name() }

// Accepting reports whether the member takes new work (lb.Backend).
func (m *Member) Accepting() bool { return m.srv.Accepting() }

// Load returns queued plus active requests (lb.Backend).
func (m *Member) Load() int { return m.srv.Active() + m.srv.QueueLen() }

// Server returns the underlying simulated server.
func (m *Member) Server() *server.Server { return m.srv }

// Pool returns the member's first out-edge connection pool (nil when none
// of the member's out-edges is pooled). The chain's app members have
// exactly one — their DB connection pool.
func (m *Member) Pool() *connpool.Pool {
	for _, p := range m.pools {
		if p != nil {
			return p
		}
	}
	return nil
}

// App is the assembled service-graph application.
type App struct {
	eng *sim.Engine
	rnd *rng.Rand
	cfg Config

	nodes      []*node
	nodeByName map[string]*node
	edges      []*edge
	edgeByKey  map[string]*edge
	entry      *node

	rts      metrics.MeanAccumulator
	rtWindow []float64
	inFlight int

	defaultPr resolvedProfile

	reqTracer *trace.RequestTracer

	// Resilience state; each member carries its own breaker.
	res resilience.Config

	// disp is the app's one request tally: every finished request's
	// outcome, completions and failures alike. lastDisp is its value at
	// the previous TakeStats, so interval counts are differences.
	disp, lastDisp metrics.DispositionCounts

	// Per-class accounting (empty / nil without Classes).
	classes       []classState
	classProfiles []resolvedProfile
	classDraw     *rng.Weighted // nil for unweighted classes
	unclassedDisp metrics.DispositionCounts

	// injected counts lifetime request arrivals; with the disposition
	// tally and inFlight it forms the whole-graph request-conservation law
	// injected = dispositions + in-flight that CheckInvariants asserts.
	injected uint64

	// Async ledger: fire-and-forget deliveries spawned over async edges
	// are conserved separately from the requests that spawned them.
	bs            *bus.Bus
	asyncSpawned  uint64
	asyncMsgs     []asyncMsg // current payload chunk (async.go)
	freeAsyncMsgs *asyncMsg  // delivered payloads, ready for reuse
	asyncChunks   int        // payload chunks carved so far
	asyncInFlight int
	asyncDisp     metrics.DispositionCounts

	// Brownout state (driven by internal/degrade); see brownout.go.
	brownoutShed   float64
	brownoutAcc    float64
	brownoutSheds  uint64
	admissionScale float64

	// Free lists of request records and hop frames (walk.go).
	freeReqs *request
	freeHops *hop

	chk *invariant.Checker
	// good counts completions within the goodput SLA (resilience runs).
	good uint64
}

// New builds the application with cfg's topology. rnd must be a dedicated
// stream: member creation order and the class draw consume from it, so the
// same seed and the same call sequence reproduce a run bit for bit.
func New(eng *sim.Engine, rnd *rng.Rand, cfg Config) (*App, error) {
	if eng == nil || rnd == nil {
		return nil, fmt.Errorf("%w: nil engine or rng", ErrBadConfig)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Resilience.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	a := &App{
		eng:        eng,
		rnd:        rnd,
		cfg:        cfg,
		nodeByName: make(map[string]*node, len(cfg.Spec.Nodes)),
		edgeByKey:  make(map[string]*edge, len(cfg.Spec.Edges)),
		res:        cfg.Resilience,

		admissionScale: 1,
	}
	for i, ns := range cfg.Spec.Nodes {
		n := &node{
			spec:     ns,
			idx:      i,
			entry:    ns.Name == cfg.Spec.Entry,
			balancer: lb.New[*Member](cfg.Policy),
			threads:  ns.Threads,
		}
		if ns.Kind == KindCache && ns.CacheSize > 0 {
			n.lru = newLRUCache(ns.CacheSize)
		}
		if a.res.Breaker.Enabled() {
			// Breaker guard: a backend whose breaker is open (and not yet
			// cooled down) is skipped like a draining one.
			n.balancer.SetGuard(func(m *Member) bool {
				return m.breaker == nil || m.breaker.Ready(a.eng.Now())
			})
		}
		a.nodes = append(a.nodes, n)
		a.nodeByName[ns.Name] = n
	}
	a.entry = a.nodeByName[cfg.Spec.Entry]
	for i, es := range cfg.Spec.Edges {
		e := &edge{
			spec:     es,
			idx:      i,
			src:      a.nodeByName[es.From],
			dst:      a.nodeByName[es.To],
			poolSize: es.PoolSize,
			key:      es.key(),
		}
		e.pos = len(e.src.outs)
		e.src.outs = append(e.src.outs, e)
		e.dst.ins = append(e.dst.ins, e)
		a.edges = append(a.edges, e)
		a.edgeByKey[e.key] = e
		if es.Kind == EdgeAsync {
			if a.bs == nil {
				a.bs = bus.New()
			}
			// The edge's consumer is the topic's only reader, so the
			// topic holds exactly the undelivered messages.
			e.topic = "graph/async/" + e.key
			e.consumer = a.bs.NewConsumer(e.topic)
		}
	}

	if len(cfg.Classes) > 0 {
		if err := a.resolveClasses(cfg.Classes); err != nil {
			return nil, err
		}
	}
	a.defaultPr, _ = a.resolveProfile("", Profile{})

	// Members are created node by node in declaration order, replica by
	// replica — the creation order (and so the rng split order) the chain
	// has always used: web-1, app-1, db-1.
	for _, n := range a.nodes {
		replicas := n.spec.Replicas
		if replicas == 0 {
			replicas = 1
		}
		for i := 0; i < replicas; i++ {
			if _, err := a.AddMember(n.spec.Name, ""); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// NodeNames lists the node names in declaration order.
func (a *App) NodeNames() []string {
	out := make([]string, len(a.nodes))
	for i, n := range a.nodes {
		out[i] = n.spec.Name
	}
	return out
}

// nodeOf resolves a node by name.
func (a *App) nodeOf(name string) (*node, error) {
	n, ok := a.nodeByName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return n, nil
}

// NodeThreads returns the named node's per-replica thread allocation.
func (a *App) NodeThreads(name string) (int, error) {
	n, err := a.nodeOf(name)
	if err != nil {
		return 0, err
	}
	return n.threads, nil
}

// EdgePoolSize returns the per-source-replica connection-pool size of the
// from→to edge (0 = unpooled).
func (a *App) EdgePoolSize(from, to string) (int, error) {
	e, ok := a.edgeByKey[from+"->"+to]
	if !ok {
		return 0, fmt.Errorf("%w: edge %s->%s", ErrUnknownNode, from, to)
	}
	return e.poolSize, nil
}

// AddMember creates a new replica of the node with the node's current
// soft allocation and registers it with the balancer. An empty name
// auto-generates one ("app-2"). It returns the new member.
func (a *App) AddMember(nodeName, name string) (*Member, error) {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return nil, err
	}
	if name == "" {
		n.nameSeq++
		name = fmt.Sprintf("%s-%d", nodeName, n.nameSeq)
	}
	if n.member(name) != nil {
		return nil, fmt.Errorf("graph: member %q already exists in %s", name, nodeName)
	}

	srvCfg := server.Config{
		Name:       name,
		NoiseSigma: a.cfg.NoiseSigma,
	}
	if a.res.Enabled() {
		// Admission control applies uniformly at every node. A member
		// added during a brownout starts at the scaled-down cap, not the
		// configured one.
		srvCfg.MaxQueue = a.res.MaxQueue
		if a.res.MaxQueue > 0 && a.admissionScale < 1 {
			srvCfg.MaxQueue = a.scaledMaxQueue()
		}
		srvCfg.CoDelTarget = a.res.CoDelTarget
		srvCfg.CoDelInterval = a.res.CoDelInterval
	}
	srvCfg.Model, srvCfg.PoolSize = n.spec.Model, n.threads
	srvCfg.ThrashKnee, srvCfg.ThrashCoef = n.spec.ThrashKnee, n.spec.ThrashCoef
	srvCfg.ThrashCap = n.spec.ThrashCap
	srvCfg.BetaOnConfigured = n.spec.BetaOnConfigured
	if n.spec.Distribution == DistExponential {
		srvCfg.Distribution = server.DistExponential
	}
	srv, err := server.New(a.eng, a.rnd.Split("server/"+name), srvCfg)
	if err != nil {
		return nil, fmt.Errorf("graph: add %s member: %w", nodeName, err)
	}
	m := &Member{srv: srv, node: n, pools: make([]*connpool.Pool, len(n.outs))}
	for _, e := range n.outs {
		if !e.pooled() {
			continue
		}
		p, err := connpool.New(a.eng, name+"/"+e.spec.poolSuffix(), e.poolSize)
		if err != nil {
			return nil, fmt.Errorf("graph: add %s member: %w", nodeName, err)
		}
		if a.res.Enabled() && a.res.MaxPoolWaiters > 0 {
			p.SetMaxWaiters(a.res.MaxPoolWaiters)
		}
		m.pools[e.pos] = p
	}
	// Breakers guard calls *into* downstream nodes. The entry node is the
	// system's front door: opening a breaker there is a self-inflicted
	// outage, so it relies on admission control instead.
	if a.res.Breaker.Enabled() && !n.entry {
		m.breaker = resilience.NewBreaker(a.res.Breaker)
	}
	if err := n.balancer.Add(m); err != nil {
		return nil, fmt.Errorf("graph: register %q: %w", name, err)
	}
	if a.reqTracer != nil {
		m.srv.SetTracer(a.reqTracer, nodeName)
		for _, p := range m.pools {
			if p != nil {
				p.SetTracer(a.reqTracer, nodeName)
			}
		}
	}
	if a.chk != nil {
		a.checkMember(m)
	}
	a.refreshConfigured()
	return m, nil
}

// SetRequestTracer attaches a request tracer to every current and future
// server and connection pool of the application (nil detaches).
func (a *App) SetRequestTracer(tr *trace.RequestTracer) {
	a.reqTracer = tr
	for _, n := range a.nodes {
		for _, m := range n.balancer.Backends() {
			m.srv.SetTracer(tr, n.spec.Name)
			for _, p := range m.pools {
				if p != nil {
					p.SetTracer(tr, n.spec.Name)
				}
			}
		}
	}
}

// SetInvariantChecker attaches an invariant checker to the application
// and every current and future server, connection pool and circuit
// breaker (nil detaches). Checking is read-only: it draws no randomness
// and schedules no events, so checked and unchecked runs are
// byte-identical.
func (a *App) SetInvariantChecker(c *invariant.Checker) {
	a.chk = c
	for _, n := range a.nodes {
		for _, m := range n.balancer.Backends() {
			a.checkMember(m)
		}
	}
}

// checkMember attaches the app's checker (nil detaches) to the member's
// server, pools and breaker. The breaker hook validates each transition
// against the legal state machine.
func (a *App) checkMember(m *Member) {
	c := a.chk
	m.srv.SetInvariantChecker(c)
	for _, p := range m.pools {
		if p != nil {
			p.SetInvariantChecker(c)
		}
	}
	if m.breaker == nil {
		return
	}
	var hook func(from, to resilience.BreakerState)
	if c != nil {
		subject := "breaker " + m.Name()
		hook = func(from, to resilience.BreakerState) {
			c.BreakerTransition(a.eng.Now(), subject, from.String(), to.String())
		}
	}
	m.breaker.SetStateHook(hook)
}

// refreshConfigured re-derives the configured concurrency of every node
// fed by pooled in-edges: the total upstream connections allocated toward
// the node, divided over its accepting replicas. Called on every topology
// or connection-pool change.
func (a *App) refreshConfigured() {
	for _, n := range a.nodes {
		total := 0
		fed := false
		for _, e := range n.ins {
			if !e.pooled() {
				continue
			}
			fed = true
			total += e.poolSize * e.src.balancer.ReadyCount()
		}
		if !fed {
			continue
		}
		dsts := n.balancer.ReadyCount()
		if dsts == 0 {
			continue
		}
		per := (total + dsts - 1) / dsts
		for _, m := range n.balancer.Backends() {
			m.srv.SetConfiguredConcurrency(per)
		}
	}
}

// member finds the named replica of n, nil when there is none. Replica
// counts are small and no caller is on the request path, so it scans.
func (n *node) member(name string) *Member {
	for _, m := range n.balancer.Backends() {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// Member returns the named replica of a node.
func (a *App) Member(nodeName, name string) (*Member, error) {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return nil, err
	}
	m := n.member(name)
	if m == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownMember, nodeName, name)
	}
	return m, nil
}

// Members returns a copy of the node's members in balancer registration
// order, so the caller may drain, remove or crash members while it
// iterates.
func (a *App) Members(nodeName string) []*Member {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return nil
	}
	return slices.Clone(n.balancer.Backends())
}

// MemberCount returns the number of replicas of the node (including
// draining ones still attached).
func (a *App) MemberCount(nodeName string) int {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return 0
	}
	return len(n.balancer.Backends())
}

// StartDrain marks a member as draining (no new work) and invokes
// onDrained once it is idle, after which the member may be removed.
// Draining the last accepting member of a node is rejected — it would
// black-hole all traffic.
func (a *App) StartDrain(nodeName, name string, onDrained func()) error {
	m, err := a.Member(nodeName, name)
	if err != nil {
		return err
	}
	if m.srv.Accepting() && m.node.balancer.ReadyCount() <= 1 {
		return fmt.Errorf("%w: %s", ErrLastMember, nodeName)
	}
	m.srv.SetAccepting(false)
	var poll func()
	poll = func() {
		if m.srv.Active() == 0 && m.srv.QueueLen() == 0 && m.poolsIdle() {
			if onDrained != nil {
				onDrained()
			}
			return
		}
		a.eng.Schedule(100*time.Millisecond, poll)
	}
	a.eng.Schedule(0, poll)
	return nil
}

// poolsIdle reports whether every out-edge pool of the member is unused.
func (m *Member) poolsIdle() bool {
	for _, p := range m.pools {
		if p != nil && p.InUse() > 0 {
			return false
		}
	}
	return true
}

// RemoveMember detaches a drained member from its node. Removing a member
// that is still accepting or busy is an error; callers should StartDrain
// first.
func (a *App) RemoveMember(nodeName, name string) error {
	m, err := a.Member(nodeName, name)
	if err != nil {
		return err
	}
	if m.srv.Accepting() {
		return fmt.Errorf("graph: remove %s/%s: still accepting (drain first)", nodeName, name)
	}
	if m.srv.Active() > 0 || m.srv.QueueLen() > 0 {
		return fmt.Errorf("graph: remove %s/%s: still busy", nodeName, name)
	}
	if err := m.node.balancer.Remove(name); err != nil {
		return fmt.Errorf("graph: remove %s/%s: %w", nodeName, name, err)
	}
	a.refreshConfigured()
	return nil
}

// FailMember crashes a member abruptly (failure injection): it is removed
// from the balancer immediately, queued requests fail, and in-flight
// requests on it are lost. Unlike StartDrain, failing the last member of
// a node is allowed — crashes do not ask permission.
func (a *App) FailMember(nodeName, name string) error {
	m, err := a.Member(nodeName, name)
	if err != nil {
		return err
	}
	if err := m.node.balancer.Remove(name); err != nil {
		return fmt.Errorf("graph: fail %s/%s: %w", nodeName, name, err)
	}
	m.srv.Kill()
	a.refreshConfigured()
	return nil
}

// SetNodeThreads resizes every replica's thread pool of the node and
// updates the allocation used for future replicas.
func (a *App) SetNodeThreads(nodeName string, v int) error {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return err
	}
	if v < 1 {
		v = 1
	}
	n.threads = v
	for _, m := range n.balancer.Backends() {
		m.srv.SetPoolSize(v)
	}
	return nil
}

// SetEdgePoolSize resizes every source replica's connection pool on the
// from→to edge and updates the allocation for future replicas. The edge
// must be pooled.
func (a *App) SetEdgePoolSize(from, to string, v int) error {
	e, ok := a.edgeByKey[from+"->"+to]
	if !ok {
		return fmt.Errorf("%w: edge %s->%s", ErrUnknownNode, from, to)
	}
	if !e.pooled() {
		return fmt.Errorf("%w: edge %s->%s has no connection pool", ErrBadConfig, from, to)
	}
	if v < 1 {
		v = 1
	}
	e.poolSize = v
	for _, m := range e.src.balancer.Backends() {
		if p := m.pools[e.pos]; p != nil {
			p.Resize(v)
		}
	}
	a.refreshConfigured()
	return nil
}

// TotalCompletions returns the lifetime number of completed requests.
func (a *App) TotalCompletions() uint64 { return a.disp.OK }

// TotalErrors returns the lifetime number of failed requests.
func (a *App) TotalErrors() uint64 { return a.disp.Failed() }

// TotalGood returns the lifetime number of good completions — requests
// that finished within the resilience config's goodput SLA. Zero when
// resilience is disabled.
func (a *App) TotalGood() uint64 { return a.good }

// TotalInjected returns the lifetime count of injected requests.
func (a *App) TotalInjected() uint64 { return a.injected }

// Dispositions returns the lifetime disposition tally of finished
// requests (ok, error, timeout, rejected, shed, breaker-open).
func (a *App) Dispositions() metrics.DispositionCounts { return a.disp }

// AsyncLedger returns the async fire-and-forget ledger: deliveries
// spawned, their finished dispositions, and the in-flight count.
func (a *App) AsyncLedger() (spawned uint64, done metrics.DispositionCounts, inFlight int) {
	return a.asyncSpawned, a.asyncDisp, a.asyncInFlight
}

// CacheStats returns the named cache node's lifetime hit/miss counts.
func (a *App) CacheStats(nodeName string) (hits, misses uint64, err error) {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return 0, 0, err
	}
	return n.hits, n.misses, nil
}

// NodeHistogramSet is the merged always-on histogram view of one node.
type NodeHistogramSet struct {
	QueueDepth  *metrics.Histogram
	ServiceTime *metrics.Histogram
	PoolWait    *metrics.Histogram // nil unless the node has pooled out-edges
}

// NodeHistograms merges every current member's lifetime histograms into
// one per-node view. Members removed earlier (drained or crashed) are not
// included.
func (a *App) NodeHistograms(nodeName string) (NodeHistogramSet, error) {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return NodeHistogramSet{}, err
	}
	var out NodeHistogramSet
	for _, m := range n.balancer.Backends() {
		if out.QueueDepth == nil {
			out.QueueDepth = m.srv.QueueDepthHistogram().CloneEmpty()
			out.ServiceTime = m.srv.ServiceTimeHistogram().CloneEmpty()
		}
		out.QueueDepth.Merge(m.srv.QueueDepthHistogram())
		out.ServiceTime.Merge(m.srv.ServiceTimeHistogram())
		for _, p := range m.pools {
			if p == nil {
				continue
			}
			if out.PoolWait == nil {
				out.PoolWait = p.WaitHistogram().CloneEmpty()
			}
			out.PoolWait.Merge(p.WaitHistogram())
		}
	}
	return out, nil
}

// NodeQueueDepthTotals returns the lifetime sum and count of queue-depth
// observations across the node's current members, in balancer order.
func (a *App) NodeQueueDepthTotals(nodeName string) (sum float64, count uint64) {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return 0, 0
	}
	for _, m := range n.balancer.Backends() {
		h := m.srv.QueueDepthHistogram()
		sum += h.Sum()
		count += h.Count()
	}
	return sum, count
}
