package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/controller"
	"dcm/internal/experiments"
	"dcm/internal/graph"
	"dcm/internal/lb"
	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

// The layer ladder: one short loop per layer that times the layer's
// public calls from outside, shaped after the workload. Each rung reports
// host nanoseconds and heap allocations per operation.

// ladderShape is what the ladder needs to know about a workload.
type ladderShape struct {
	// law and threads are the busiest service node's Eq. 5 law and
	// thread pool, for the server rung.
	law     model.Params
	threads int
	// poolSize is the workload's pooled-edge size, for the connpool rungs.
	poolSize int
	// hopLaw is the entry node's law, for the one-node graph hop.
	hopLaw model.Params
	// topology is the workload's own topology (visit counts for the walk
	// attribution); newApp builds it for the request rung.
	topology graph.Spec
	newApp   func(eng *sim.Engine, rnd *rng.Rand) (workload.Target, error)
	// population and meanDelay shape the sim rung's standing timers.
	population int
	meanDelay  time.Duration
	// newGen starts the workload's generator against an instant target and
	// returns the arrival counter and the virtual horizon to run it for.
	newGen func(eng *sim.Engine, rnd *rng.Rand, t instantTarget) (arrivals func() uint64, horizon time.Duration, err error)
	// genReps repeats the generator rung so it runs long enough to time.
	genReps int
}

// rung is one timed loop's result.
type rung struct {
	ns, allocs float64
}

// measure times ops iterations of body and returns per-op nanoseconds
// and heap allocations.
func measure(ops int, body func() error) (rung, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := body()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rung{}, err
	}
	n := float64(max(ops, 1))
	return rung{ns: float64(el.Nanoseconds()) / n, allocs: float64(m1.Mallocs-m0.Mallocs) / n}, nil
}

// instantTarget completes every request at once: the generator rung
// measures the generator alone.
type instantTarget struct{}

func (instantTarget) Inject(done func(time.Duration, bool)) { done(0, true) }

func (instantTarget) InjectClass(_ int, _ uint64, done func(time.Duration, bool)) { done(0, true) }

// simRung fires fires events from a standing population of self-rearming
// timers with delays uniform in [0, 2*meanDelay).
func simRung(population int, meanDelay time.Duration, fires int) (rung, error) {
	eng := sim.NewEngine()
	lcg := uint64(0x9E3779B97F4A7C15)
	span := uint64(2 * max(meanDelay, time.Microsecond))
	next := func() time.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return time.Duration((lcg >> 11) % span)
	}
	fired := 0
	var rearm func()
	rearm = func() {
		fired++
		if fired < fires {
			eng.Schedule(next(), rearm)
		} else {
			eng.Stop()
		}
	}
	for i := 0; i < population; i++ {
		eng.Schedule(next(), rearm)
	}
	return measure(fires, func() error {
		if err := eng.Run(1 << 62); err != nil {
			return err
		}
		if fired < fires {
			return fmt.Errorf("sim rung fired %d of %d", fired, fires)
		}
		return nil
	})
}

// serverRung runs cycles of Acquire, Exec and Release, keeping the
// thread pool full so Eq. 5 sees the pool's concurrency.
func serverRung(law model.Params, threads, cycles int) (rung, error) {
	eng := sim.NewEngine()
	srv, err := server.New(eng, rng.New(1).Split("server"), server.Config{Name: "rung", Model: law, PoolSize: threads})
	if err != nil {
		return rung{}, err
	}
	// Preallocated per-slot callbacks keep the rung's own allocations out
	// of the count.
	type slot struct {
		sess *server.Session
		done func()
	}
	free := make([]*slot, 0, threads)
	issued, finished := 0, 0
	var onAcquire func(*server.Session)
	onAcquire = func(s *server.Session) {
		sl := free[len(free)-1]
		free = free[:len(free)-1]
		sl.sess = s
		s.Exec(sl.done)
	}
	for i := 0; i < threads; i++ {
		sl := &slot{}
		sl.done = func() {
			sl.sess.Release()
			free = append(free, sl)
			finished++
			if issued < cycles {
				issued++
				srv.Acquire(onAcquire)
			}
		}
		free = append(free, sl)
	}
	return measure(cycles, func() error {
		for issued < min(threads, cycles) {
			issued++
			srv.Acquire(onAcquire)
		}
		if err := eng.Run(eng.Now() + time.Hour*24*365); err != nil {
			return err
		}
		if finished != cycles {
			return fmt.Errorf("server rung finished %d of %d", finished, cycles)
		}
		return nil
	})
}

// poolRung times uncontended Acquire+Release on a pool of the workload's
// size.
func poolRung(size, cycles int) (rung, error) {
	eng := sim.NewEngine()
	p, err := connpool.New(eng, "rung", size)
	if err != nil {
		return rung{}, err
	}
	release := func(c *connpool.Conn) { c.Release() }
	return measure(cycles, func() error {
		for i := 0; i < cycles; i++ {
			p.Acquire(release)
		}
		if p.InUse() != 0 {
			return fmt.Errorf("pool rung left %d connections held", p.InUse())
		}
		return nil
	})
}

// poolWaitRung times acquisitions that go through the waiter queue: the
// pool is held full, waiters queue behind it, and each release hands its
// connection to the next waiter.
func poolWaitRung(size, waiters int) (rung, error) {
	eng := sim.NewEngine()
	p, err := connpool.New(eng, "rung", size)
	if err != nil {
		return rung{}, err
	}
	held := make([]*connpool.Conn, 0, size+waiters)
	hold := func(c *connpool.Conn) { held = append(held, c) }
	for i := 0; i < size; i++ {
		p.Acquire(hold)
	}
	return measure(waiters, func() error {
		for i := 0; i < waiters; i++ {
			p.Acquire(hold)
		}
		for len(held) > 0 {
			c := held[0]
			held = held[1:]
			c.Release()
		}
		if p.Waiting() != 0 || p.InUse() != 0 {
			return fmt.Errorf("pool wait rung left %d waiting, %d held", p.Waiting(), p.InUse())
		}
		return nil
	})
}

// injectRung injects requests one at a time into the app newApp builds,
// running the engine dry after each, so exactly one request is in flight.
func injectRung(newApp func(*sim.Engine, *rng.Rand) (workload.Target, error), requests int) (rung, error) {
	eng := sim.NewEngine()
	app, err := newApp(eng, rng.New(1).Split("app"))
	if err != nil {
		return rung{}, err
	}
	finished := 0
	done := func(time.Duration, bool) { finished++ }
	return measure(requests, func() error {
		for i := 0; i < requests; i++ {
			app.Inject(done)
			if err := eng.Run(eng.Now() + 10*time.Second); err != nil {
				return err
			}
		}
		if finished != requests {
			return fmt.Errorf("inject rung finished %d of %d", finished, requests)
		}
		return nil
	})
}

// hopApp builds a one-node graph: a single hop.
func hopApp(law model.Params, threads int) func(*sim.Engine, *rng.Rand) (workload.Target, error) {
	return func(eng *sim.Engine, rnd *rng.Rand) (workload.Target, error) {
		return graph.New(eng, rnd, graph.Config{Spec: graph.Spec{
			Name:  "hop",
			Entry: "node",
			Nodes: []graph.NodeSpec{{Name: "node", Model: law, Threads: threads}},
		}})
	}
}

// genRung runs the workload's generator against an instant target.
func genRung(sh ladderShape) (rung, error) {
	var arrivals uint64
	r, err := measure(1, func() error {
		for i := 0; i < sh.genReps; i++ {
			eng := sim.NewEngine()
			count, horizon, err := sh.newGen(eng, rng.New(uint64(i+1)).Split("wl"), instantTarget{})
			if err != nil {
				return err
			}
			if err := eng.Run(horizon); err != nil {
				return err
			}
			arrivals += count()
		}
		return nil
	})
	if err != nil || arrivals == 0 {
		return rung{}, fmt.Errorf("generator rung: %d arrivals, %v", arrivals, err)
	}
	return rung{ns: r.ns / float64(arrivals), allocs: r.allocs / float64(arrivals)}, nil
}

// replayController feeds the audited decision views into a fresh DCM
// controller built like fig5-dcm's, reps times, and returns the time per
// Evaluate and the number of decisions whose replayed actions differ from
// the recorded ones (first pass).
func replayController(decisions []controller.Decision, reps int) (ns float64, mismatches int, err error) {
	tomcat, mysql := experiments.TrainedModels()
	var dcm []controller.Decision
	for _, d := range decisions {
		if d.Controller == "dcm" {
			dcm = append(dcm, d)
		}
	}
	if len(dcm) == 0 {
		return 0, 0, fmt.Errorf("controller replay: no dcm decisions recorded")
	}
	var el time.Duration
	for r := 0; r < reps; r++ {
		c, err := controller.NewDCM(controller.DCMConfig{
			Policy:      controller.DefaultPolicy(),
			TomcatModel: tomcat,
			MySQLModel:  mysql,
		})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for _, d := range dcm {
			got := c.Evaluate(d.View)
			if r == 0 && !reflect.DeepEqual(got, d.Actions) {
				mismatches++
			}
		}
		el += time.Since(t0)
	}
	return float64(el.Nanoseconds()) / float64(reps*len(dcm)), mismatches, nil
}

// specVisits returns the expected server visits and pooled connection
// acquisitions of one request through spec, walking the DAG from the
// entry in topological order.
func specVisits(spec graph.Spec) (serverVisits, pooled float64) {
	visits := map[string]float64{spec.Entry: 1}
	indeg := map[string]int{}
	for _, e := range spec.Edges {
		indeg[e.To]++
	}
	ready := []string{spec.Entry}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		serverVisits += visits[n]
		for _, e := range spec.Edges {
			if e.From != n {
				continue
			}
			calls := visits[n] * float64(e.Visits)
			visits[e.To] += calls
			if e.PoolSize > 0 {
				pooled += calls
			}
			if indeg[e.To]--; indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return serverVisits, pooled
}

// Rung iteration counts: large enough that each rung runs for tens of
// milliseconds.
const (
	simFires      = 1_000_000
	serverCycles  = 200_000
	poolCycles    = 1_000_000
	poolWaiters   = 200_000
	hopRequests   = 50_000
	walkRequests  = 20_000
	controllerRep = 200
)

// runLadder runs every rung for the workload and returns the per-layer
// metrics. decisions feeds the controller rung.
func runLadder(sh ladderShape, decisions []controller.Decision) (map[string]float64, error) {
	m := map[string]float64{}
	steps := []struct {
		name string
		run  func() (rung, error)
	}{
		{"sim.fire", func() (rung, error) { return simRung(sh.population, sh.meanDelay, simFires) }},
		{"server.cycle", func() (rung, error) { return serverRung(sh.law, sh.threads, serverCycles) }},
		{"connpool.cycle", func() (rung, error) { return poolRung(sh.poolSize, poolCycles) }},
		{"connpool.wait_cycle", func() (rung, error) { return poolWaitRung(sh.poolSize, poolWaiters) }},
		{"graph.hop", func() (rung, error) { return injectRung(hopApp(sh.hopLaw, sh.threads), hopRequests) }},
		{"graph.req", func() (rung, error) { return injectRung(sh.newApp, walkRequests) }},
		{"workload.arrival", func() (rung, error) { return genRung(sh) }},
	}
	for _, s := range steps {
		r, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", s.name, err)
		}
		m[s.name+"_ns"] = r.ns
		m[s.name+"_allocs"] = r.allocs
	}
	delete(m, "connpool.wait_cycle_allocs")
	serverVisits, pooled := specVisits(sh.topology)
	m["graph.walk_ns"] = m["graph.req_ns"] - serverVisits*m["server.cycle_ns"] - pooled*m["connpool.cycle_ns"]

	ns, mismatches, err := replayController(decisions, controllerRep)
	if err != nil {
		return nil, err
	}
	if mismatches > 0 {
		return nil, fmt.Errorf("controller replay: %d decisions differ from the recorded actions", mismatches)
	}
	m["controller.evaluate_ns"] = ns
	return m, nil
}

// Ladder shapes of the three workloads.

func (f *fig5) shape() ladderShape {
	cfg := ntier.DefaultConfig()
	cfg.WebThreads = f.alloc.WebThreadsPerServer
	cfg.AppThreads = f.alloc.AppThreadsPerServer
	cfg.DBConnsPerApp = f.alloc.DBConnsPerAppServer
	return chainShape(cfg, f.trace, f.trace.Duration())
}

// The million-user smoke has no application; its request rungs use the
// paper's default chain, and its generator rung runs the first 6 virtual
// seconds, which already hold millions of arrivals.
func (m *million) shape() ladderShape {
	return chainShape(ntier.DefaultConfig(), m.trace, 6*time.Second)
}

// chainShape shapes the ladder after the web→app→db chain driven by a
// trace-driven closed loop with 3 s think time.
func chainShape(cfg ntier.Config, tr *trace.Trace, genHorizon time.Duration) ladderShape {
	return ladderShape{
		law:      cfg.AppModel,
		threads:  cfg.AppThreads,
		poolSize: cfg.DBConnsPerApp,
		hopLaw:   cfg.WebModel,
		topology: chainSpec(cfg),
		newApp: func(eng *sim.Engine, rnd *rng.Rand) (workload.Target, error) {
			return ntier.New(eng, rnd, cfg)
		},
		population: tr.MaxUsers(),
		meanDelay:  3 * time.Second,
		newGen: func(eng *sim.Engine, rnd *rng.Rand, t instantTarget) (func() uint64, time.Duration, error) {
			wl, err := workload.NewTraceDriven(eng, rnd, t, tr, 3*time.Second, time.Second)
			if err != nil {
				return nil, 0, err
			}
			wl.Start()
			return wl.Loop().TotalCompleted, genHorizon, nil
		},
		genReps: 1,
	}
}

func (f *fanout5) shape() ladderShape {
	var busiest graph.NodeSpec
	for _, n := range f.spec.Nodes {
		if n.Controller && n.Threads > busiest.Threads {
			busiest = n
		}
	}
	pool := 0
	for _, e := range f.spec.Edges {
		pool = max(pool, e.PoolSize)
	}
	return ladderShape{
		law:      busiest.Model,
		threads:  busiest.Threads,
		poolSize: pool,
		hopLaw:   f.spec.Nodes[0].Model,
		topology: f.spec,
		newApp: func(eng *sim.Engine, rnd *rng.Rand) (workload.Target, error) {
			res, err := resilience.Preset("full", f.timeout)
			if err != nil {
				return nil, err
			}
			return graph.New(eng, rnd, graph.Config{Spec: f.spec, Policy: lb.LeastConnections, Resilience: *res})
		},
		// Under deadlines the in-flight population is bounded by the peak
		// rate times the timeout, with a deadline timer and a burst timer
		// per request.
		population: int(2 * f.wspec.Arrivals.PeakRate * f.timeout.Seconds()),
		meanDelay:  10 * time.Millisecond,
		newGen: func(eng *sim.Engine, rnd *rng.Rand, t instantTarget) (func() uint64, time.Duration, error) {
			gen, err := f.wspec.Build(eng, rnd, t)
			if err != nil {
				return nil, 0, err
			}
			ol, ok := gen.(*workload.OpenLoopGen)
			if !ok {
				return nil, 0, fmt.Errorf("fanout5-flash generator is %T, want open loop", gen)
			}
			ol.Start()
			return ol.Scheduled, f.horizon, nil
		},
		genReps: 20,
	}
}

// chainSpec is the graph the ntier facade assembles for cfg.
func chainSpec(cfg ntier.Config) graph.Spec {
	return graph.ChainSpec(cfg.WebModel, cfg.AppModel, cfg.DBModel,
		cfg.WebThreads, cfg.AppThreads, cfg.DBConnsPerApp, cfg.DBMaxConns,
		cfg.QueriesPerRequest, cfg.WebServers, cfg.AppServers, cfg.DBServers,
		cfg.DBThrashKnee, cfg.DBThrashCoef, cfg.DBThrashCap)
}
