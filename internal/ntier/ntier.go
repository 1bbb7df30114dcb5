// Package ntier assembles simulated component servers into the 3-tier
// RUBBoS-style web application of the paper (Fig. 1(c)): an Apache web
// tier, a Tomcat application tier, and a MySQL database tier, with HAProxy
// load balancers in front of the scalable tiers and one shared DB
// connection pool per Tomcat.
//
// A request follows the paper's flow (§III-A): it occupies an Apache worker
// thread, which dispatches to a Tomcat server; the Tomcat thread runs the
// servlet's CPU work and then issues QueriesPerRequest sequential MySQL
// queries, each through the Tomcat's DB connection pool — the pool that
// bounds MySQL's request-processing concurrency from upstream (§IV-B).
// Threads are held across downstream calls, exactly as in the real stack.
//
// The chain is the 3-node case of internal/graph (graph.ChainSpec). This
// package holds only what is specific to the paper's chain: the tier
// names, the Table I calibration, the RUBBoS servlet mix, whose classes
// are graph.Class values profiled over the chain's nodes, and the mapping
// of the paper's three soft-resource knobs onto the chain's nodes, read
// by Allocation and written by SetAllocation (the APP-agent). New
// returns the graph engine itself; callers drive it through the graph
// API, naming the tiers as nodes. The sha256 digest regressions in
// internal/experiments pin that the chain reproduces its event and rng
// stream bit for bit.
package ntier

import (
	"errors"
	"fmt"

	"dcm/internal/graph"
	"dcm/internal/lb"
	"dcm/internal/model"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// Tier names.
const (
	TierWeb = "web"
	TierApp = "app"
	TierDB  = "db"
)

// Tiers lists the tier names front to back.
func Tiers() []string { return []string{TierWeb, TierApp, TierDB} }

// Config describes the application's service-time laws and initial soft
// and hard resource allocation.
type Config struct {
	// WebModel, AppModel, DBModel are the Equation 5 burst laws: per
	// request for web and app, per query for the DB.
	WebModel, AppModel, DBModel model.Params
	// WebThreads, AppThreads are per-server thread pool sizes (#W_T, #A_T).
	WebThreads, AppThreads int
	// DBConnsPerApp is each Tomcat's DB connection pool size (#A_C).
	DBConnsPerApp int
	// DBMaxConns is MySQL's own connection limit, normally generous: the
	// paper controls MySQL concurrency from upstream pools instead.
	DBMaxConns int
	// QueriesPerRequest is the DB visit ratio V_db (the paper's example
	// workload issues 2 queries per HTTP request). It is the app→db
	// edge's visit ratio, which a class's profile may override.
	QueriesPerRequest int
	// Classes, when non-empty, enables request classes, each with its own
	// priority, SLO and demand profile over the chain's nodes and its own
	// per-class tallies; New hands them to graph.New unchanged.
	// Unweighted classes are picked per request by the workload and
	// injected through InjectClass; weighted ones are drawn by Inject
	// (§II-A's RUBBoS servlet mix, DefaultServlets). Empty keeps the
	// single uniform class the calibration uses.
	Classes []graph.Class
	// WebServers, AppServers, DBServers are the initial #W/#A/#D.
	WebServers, AppServers, DBServers int
	// NoiseSigma adds mean-one lognormal noise to every burst.
	NoiseSigma float64
	// DBThrashKnee, DBThrashCoef and DBThrashCap give the database servers
	// the super-quadratic collapse past the knee that real MySQL exhibits
	// (see server.Config); they are what make over-concurrency at the DB
	// tier genuinely harmful, as in Fig. 2, and create the bistable
	// collapsed state the scale-out trap locks into.
	DBThrashKnee int
	DBThrashCoef float64
	DBThrashCap  float64
	// Policy selects the load-balancing policy (default round-robin).
	Policy lb.Policy
	// Resilience configures the data-plane resilience features: request
	// deadlines propagated across every tier hop, per-backend circuit
	// breakers at the tier boundaries, bounded admission queues and CoDel
	// shedding. The zero value disables everything and leaves the request
	// flow byte-identical to the resilience-free application.
	Resilience resilience.Config
}

// DefaultConfig returns the calibrated simulator configuration:
// a 1/1/1 topology with the paper's default 1000/100/80 soft allocation.
//
// The burst laws are calibrated against Table I so that the *measured*
// behaviour of the simulated system reproduces the paper's numbers:
//
//   - the MySQL per-query law keeps Table I's exact shape (scaling every
//     parameter by one factor preserves N_b = 36 and the relative
//     throughput curve) at a scale where the MySQL tier saturates at
//     ≈1000 requests/s — high enough not to mask the Tomcat tier's
//     optimum in the 1/1/1 configuration;
//   - the Tomcat per-request CPU law is tuned so the *composite*
//     throughput-vs-threads curve measured at the Tomcat tier (CPU burst
//     plus two in-thread MySQL visits, exactly what §V-A's training run
//     observes) peaks near N_b ≈ 20 at ≈946 requests/s — Table I's values;
//   - the Apache law is a fast pass-through that never bottlenecks, as in
//     the paper (the web tier is never scaled).
func DefaultConfig() Config {
	return Config{
		WebModel: model.Params{S0: 4e-4, Alpha: 5e-7, Beta: 1e-10, Gamma: 1},
		AppModel: model.Params{S0: 1.0e-4, Alpha: 2.6e-4, Beta: 1.5e-5, Gamma: 1},
		DBModel:  model.Params{S0: 6.867e-4, Alpha: 4.814e-4, Beta: 1.576e-7, Gamma: 1},

		WebThreads:        1000,
		AppThreads:        100,
		DBConnsPerApp:     80,
		DBMaxConns:        2000,
		QueriesPerRequest: 2,
		WebServers:        1,
		AppServers:        1,
		DBServers:         1,

		DBThrashKnee: 40,
		DBThrashCoef: 1.3e-5,

		// HAProxy is configured with least-connections balancing, the
		// standard choice for long-lived backend requests and what lets a
		// newly added server absorb a tier's backlog after scaling
		// (§IV-A's "rebalance the load to the tiers after scaling").
		Policy: lb.LeastConnections,
	}
}

// ErrBadConfig is returned for invalid chain configs.
var ErrBadConfig = errors.New("ntier: invalid config")

// chainSpec translates the chain config into the graph topology.
func chainSpec(cfg Config) graph.Spec {
	return graph.ChainSpec(
		cfg.WebModel, cfg.AppModel, cfg.DBModel,
		cfg.WebThreads, cfg.AppThreads, cfg.DBConnsPerApp, cfg.DBMaxConns,
		cfg.QueriesPerRequest,
		cfg.WebServers, cfg.AppServers, cfg.DBServers,
		cfg.DBThrashKnee, cfg.DBThrashCoef, cfg.DBThrashCap)
}

// New validates cfg and builds the chain as a 3-node service graph with
// cfg's initial topology. rnd must be a dedicated stream.
func New(eng *sim.Engine, rnd *rng.Rand, cfg Config) (*graph.App, error) {
	if eng == nil || rnd == nil {
		return nil, fmt.Errorf("%w: nil engine or rng", ErrBadConfig)
	}
	if cfg.WebServers < 1 || cfg.AppServers < 1 || cfg.DBServers < 1 {
		return nil, fmt.Errorf("%w: topology %d/%d/%d", ErrBadConfig,
			cfg.WebServers, cfg.AppServers, cfg.DBServers)
	}
	if cfg.WebThreads < 1 || cfg.AppThreads < 1 || cfg.DBConnsPerApp < 1 || cfg.DBMaxConns < 1 {
		return nil, fmt.Errorf("%w: soft allocation %d/%d/%d (db max %d)", ErrBadConfig,
			cfg.WebThreads, cfg.AppThreads, cfg.DBConnsPerApp, cfg.DBMaxConns)
	}
	if cfg.QueriesPerRequest < 0 {
		return nil, fmt.Errorf("%w: %d queries per request", ErrBadConfig, cfg.QueriesPerRequest)
	}
	for _, m := range []model.Params{cfg.WebModel, cfg.AppModel, cfg.DBModel} {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if err := cfg.Resilience.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	return graph.New(eng, rnd, graph.Config{
		Spec:       chainSpec(cfg),
		NoiseSigma: cfg.NoiseSigma,
		Policy:     cfg.Policy,
		Resilience: cfg.Resilience,
		Classes:    cfg.Classes,
	})
}

// Allocation returns g's current soft-resource allocation in the paper's
// #W_T/#A_T/#A_C form: the web and app nodes' per-replica threads and the
// app→db edge's per-replica connection-pool size. It is the one place that
// maps the paper's three knobs onto the chain's nodes. A knob whose node
// or edge g lacks reads 0.
func Allocation(g *graph.App) model.Allocation {
	web, _ := g.NodeThreads(TierWeb)
	app, _ := g.NodeThreads(TierApp)
	conns, _ := g.EdgePoolSize(TierApp, TierDB)
	return model.Allocation{
		WebThreadsPerServer: web,
		AppThreadsPerServer: app,
		DBConnsPerAppServer: conns,
	}
}

// SetAllocation is the APP-agent's actuation (§IV-B): it sets g's
// soft-resource allocation through the same mapping Allocation reads.
// Only knobs that target sets (> 0) and that differ from g's current
// value are touched; in-flight requests are never interrupted (pool
// shrinks drain gracefully).
func SetAllocation(g *graph.App, target model.Allocation) {
	current := Allocation(g)
	if target.WebThreadsPerServer > 0 && target.WebThreadsPerServer != current.WebThreadsPerServer {
		_ = g.SetNodeThreads(TierWeb, target.WebThreadsPerServer)
	}
	if target.AppThreadsPerServer > 0 && target.AppThreadsPerServer != current.AppThreadsPerServer {
		_ = g.SetNodeThreads(TierApp, target.AppThreadsPerServer)
	}
	if target.DBConnsPerAppServer > 0 && target.DBConnsPerAppServer != current.DBConnsPerAppServer {
		_ = g.SetEdgePoolSize(TierApp, TierDB, target.DBConnsPerAppServer)
	}
}
