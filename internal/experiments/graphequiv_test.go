package experiments

import (
	"reflect"
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// The chain-translation differential suite. ntier.New validates a chain
// config and translates it into a graph config; this suite checks that
// translation. Building the application through ntier.New and building
// the same 3-node graph directly through graph.New on an independently
// written translation must produce byte-identical runs — same event
// count, same rng consumption, same dispositions, same per-node ledgers —
// across resilience, servlet-mix and traffic-class variants. (The
// chain-mode sha256 digests themselves are re-asserted by the
// policy-equivalence suite; this suite pins the two translations to each
// other.)

// equivChainConfig is a small chain that completes quickly but still
// queues at the app and db tiers.
func equivChainConfig() ntier.Config {
	cfg := ntier.DefaultConfig()
	cfg.WebThreads = 100
	cfg.AppThreads = 20
	cfg.DBConnsPerApp = 10
	cfg.DBMaxConns = 200
	return cfg
}

// graphSnapshot is the comparable end-state of one run.
type graphSnapshot struct {
	Processed   uint64
	Injected    uint64
	Completions uint64
	Errors      uint64
	Good        uint64
	Disp        metrics.DispositionCounts
	Visits      map[string]graph.NodeVisitStat
	Stats       pinnedStats
}

// pinnedStats is graph.Stats in the JSON layout TestGraphChainDigestPinned
// was captured with: the interval stats, then the in-flight gauge and the
// interval's resilience outcome counts, which graph.Stats no longer
// carries. snapshotGraph's TakeStats covers the whole run, so the
// lifetime tallies are the interval's.
type pinnedStats struct {
	graph.Stats
	InFlight    int    `json:"inFlight"`
	Good        uint64 `json:"good,omitempty"`
	TimedOut    uint64 `json:"timedOut,omitempty"`
	Rejected    uint64 `json:"rejected,omitempty"`
	Shed        uint64 `json:"shed,omitempty"`
	BreakerOpen uint64 `json:"breakerOpen,omitempty"`
}

func snapshotGraph(eng *sim.Engine, g *graph.App) graphSnapshot {
	d := g.Dispositions()
	return graphSnapshot{
		Processed:   eng.Processed(),
		Injected:    g.TotalInjected(),
		Completions: g.TotalCompletions(),
		Errors:      g.TotalErrors(),
		Good:        g.TotalGood(),
		Disp:        d,
		Visits:      g.NodeVisits(),
		Stats: pinnedStats{
			Stats:       g.TakeStats(),
			InFlight:    int(g.TotalInjected() - d.Total()),
			Good:        g.TotalGood(),
			TimedOut:    d.TimedOut,
			Rejected:    d.Rejected,
			Shed:        d.Shed,
			BreakerOpen: d.BreakerOpen,
		},
	}
}

// arrival is one precomputed injection, shared verbatim by both runs.
type arrival struct {
	at      time.Duration
	class   int
	session uint64
}

func equivArrivals(seed uint64, n int, rate float64, classes int) []arrival {
	wl := rng.New(seed).Split("wl")
	out := make([]arrival, n)
	var t float64
	for i := range out {
		t += wl.Exp(1 / rate)
		out[i] = arrival{at: time.Duration(t * float64(time.Second)), class: -1}
		if classes > 0 {
			out[i].class = wl.Intn(classes)
			out[i].session = uint64(i + 1)
		}
	}
	return out
}

// TestGraphDirectMatchesFacade runs each variant twice — once assembled
// by ntier.New, once by graph.New on the equivalent config — and
// requires identical end states.
func TestGraphDirectMatchesFacade(t *testing.T) {
	t.Parallel()
	full, err := resilience.Preset("full", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	variants := []struct {
		name    string
		mutate  func(*ntier.Config)
		classes int
	}{
		{name: "plain", mutate: func(*ntier.Config) {}},
		{name: "resilience-servlet-mix", mutate: func(c *ntier.Config) {
			c.Resilience = *full
			c.Classes = ntier.DefaultServlets()
			c.NoiseSigma = 0.1
		}},
		{name: "traffic-classes", mutate: func(c *ntier.Config) {
			c.Resilience = *full
			c.Classes = []graph.Class{
				{Name: "premium", Priority: 1, SLO: 150 * time.Millisecond},
				{Name: "basic", Profile: graph.Profile{EdgeVisits: map[string]int{"app->db": 3}}},
			}
		}, classes: 2},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := equivChainConfig()
			v.mutate(&cfg)
			arrivals := equivArrivals(99, 600, 900, v.classes)

			run := func(build func(eng *sim.Engine) (*graph.App, error)) graphSnapshot {
				eng := sim.NewEngine()
				g, err := build(eng)
				if err != nil {
					t.Fatal(err)
				}
				for _, ar := range arrivals {
					ar := ar
					eng.Schedule(ar.at, func() {
						if ar.class >= 0 {
							g.InjectClass(ar.class, ar.session, func(time.Duration, bool) {})
						} else {
							g.Inject(func(time.Duration, bool) {})
						}
					})
				}
				if err := eng.Run(time.Minute); err != nil {
					t.Fatal(err)
				}
				return snapshotGraph(eng, g)
			}

			translated := run(func(eng *sim.Engine) (*graph.App, error) {
				return ntier.New(eng, rng.New(42).Split("app"), cfg)
			})
			direct := run(func(eng *sim.Engine) (*graph.App, error) {
				return graph.New(eng, rng.New(42).Split("app"), directGraphConfig(cfg))
			})

			if !reflect.DeepEqual(translated, direct) {
				t.Fatalf("ntier.New and direct-graph runs diverged:\nntier:  %+v\ndirect: %+v",
					translated, direct)
			}
			if translated.Completions == 0 {
				t.Fatal("degenerate run: nothing completed")
			}
		})
	}
}

// directGraphConfig maps an ntier chain config onto graph.Config exactly
// as ntier.New does — reimplemented here (not shared) so a translation
// bug cannot hide by symmetry.
func directGraphConfig(cfg ntier.Config) graph.Config {
	spec := graph.ChainSpec(
		cfg.WebModel, cfg.AppModel, cfg.DBModel,
		cfg.WebThreads, cfg.AppThreads, cfg.DBConnsPerApp, cfg.DBMaxConns,
		cfg.QueriesPerRequest,
		cfg.WebServers, cfg.AppServers, cfg.DBServers,
		cfg.DBThrashKnee, cfg.DBThrashCoef, cfg.DBThrashCap)
	return graph.Config{
		Spec:       spec,
		NoiseSigma: cfg.NoiseSigma,
		Policy:     cfg.Policy,
		Resilience: cfg.Resilience,
		Classes:    cfg.Classes,
	}
}

// TestGraphChainDigestPinned freezes the direct-graph chain run itself:
// the digest below was captured when the graph engine landed and must
// never drift — the graph walk is the byte-level contract the chain-mode
// digests (policyequiv) rest on.
func TestGraphChainDigestPinned(t *testing.T) {
	t.Parallel()
	cfg := equivChainConfig()
	cfg.Resilience = func() resilience.Config {
		r, err := resilience.Preset("full", 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}()
	eng := sim.NewEngine()
	g, err := graph.New(eng, rng.New(42).Split("app"), directGraphConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range equivArrivals(99, 600, 900, 0) {
		eng.Schedule(ar.at, func() { g.Inject(func(time.Duration, bool) {}) })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	snap := snapshotGraph(eng, g)
	const want = "0957a8bce25ee98a6354898bb90b15d4da6b5c5ed139290795a905f450b5641d"
	if got := equivDigest(t, snap); got != want {
		t.Errorf("chain graph digest = %s, want %s", got, want)
	}
}
