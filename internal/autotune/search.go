package autotune

import (
	"fmt"
	"sort"

	"dcm/internal/rng"
	"dcm/internal/runner"
)

// Config parameterizes a search.
type Config struct {
	// Templates are the per-controller search spaces (default:
	// DefaultTemplates()).
	Templates []Template
	// Portfolio is the scenario set every candidate is scored on (default:
	// the full Portfolio at seed 42).
	Portfolio []Scenario
	// Budget caps candidate evaluations per controller (default 24). The
	// grid is stride-subsampled to fit; whatever budget remains funds
	// refinement rounds.
	Budget int
	// Seeds is the number of random perturbations spawned per frontier
	// point per refinement round (default 2; 0 disables refinement).
	Seeds int
	// Rounds caps the refinement rounds (default 2).
	Rounds int
	// Workers sizes the runner pool (<= 0 selects the runner default).
	// Results are input-ordered, so the report is byte-identical for any
	// worker count.
	Workers int
	// Seed drives the refinement perturbations (default 1).
	Seed uint64
}

func (c *Config) defaults() error {
	if len(c.Templates) == 0 {
		c.Templates = DefaultTemplates()
	}
	if len(c.Portfolio) == 0 {
		p, err := Portfolio(nil, 42, false)
		if err != nil {
			return err
		}
		c.Portfolio = p
	}
	if c.Budget <= 0 {
		c.Budget = 24
	}
	if c.Seeds < 0 {
		c.Seeds = 0
	} else if c.Seeds == 0 {
		c.Seeds = 2
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	for _, t := range c.Templates {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Point is one evaluated candidate: the knob values, the portfolio scores,
// and the two aggregate axes the frontier is computed on.
type Point struct {
	Candidate
	// Attainment is the portfolio-mean SLO attainment (maximize).
	Attainment float64 `json:"attainment"`
	// ServerHours is the summed scalable-tier VM time (minimize).
	ServerHours float64 `json:"serverHours"`
	// Evaluations are the per-scenario scores, in portfolio order.
	Evaluations []Evaluation `json:"evaluations"`
}

// ControllerReport is one controller's search outcome.
type ControllerReport struct {
	Controller string `json:"controller"`
	// Tunables echoes the searched knobs and ranges.
	Tunables []Tunable `json:"tunables"`
	// Evaluated counts distinct candidates scored (grid + refinement).
	Evaluated int `json:"evaluated"`
	// Frontier is the Pareto-optimal subset, sorted by ServerHours
	// ascending: no other evaluated candidate beats a frontier point on
	// both axes.
	Frontier []Point `json:"frontier"`
	// Points are all evaluated candidates in evaluation order.
	Points []Point `json:"points"`
}

// Report is the full search outcome: the SLO-vs-cost Pareto frontier per
// controller, plus the portfolio and search parameters that produced it.
// The report carries no timestamps or environment data: the same Config
// always marshals to the same bytes.
type Report struct {
	Portfolio   []Scenario         `json:"portfolio"`
	Budget      int                `json:"budget"`
	Seeds       int                `json:"seeds"`
	Rounds      int                `json:"rounds"`
	Seed        uint64             `json:"seed"`
	Controllers []ControllerReport `json:"controllers"`
}

// Run executes the search: per controller, the (possibly subsampled)
// template grid, then seeded random refinement of the running Pareto
// frontier until the budget or the round cap is hit. All candidate
// batches fan out through runner.Map, whose input-ordered results make
// the report independent of Config.Workers.
func Run(cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rep := &Report{
		Portfolio: cfg.Portfolio,
		Budget:    cfg.Budget,
		Seeds:     cfg.Seeds,
		Rounds:    cfg.Rounds,
		Seed:      cfg.Seed,
	}
	for _, tmpl := range cfg.Templates {
		cr, err := searchController(tmpl, cfg)
		if err != nil {
			return nil, err
		}
		rep.Controllers = append(rep.Controllers, cr)
	}
	return rep, nil
}

// searchController runs one template's grid-plus-refinement search.
func searchController(tmpl Template, cfg Config) (ControllerReport, error) {
	cr := ControllerReport{
		Controller: string(tmpl.Controller),
		Tunables:   tmpl.Tunables,
	}
	root := rng.New(cfg.Seed)

	evaluate := func(cands []Candidate) ([]Point, error) {
		return runner.Map(cands, cfg.Workers, func(_ int, c Candidate) (Point, error) {
			return scoreCandidate(tmpl, cfg.Portfolio, c)
		})
	}

	seen := map[string]bool{}
	wave := Subsample(tmpl.Grid(), cfg.Budget)
	for _, c := range wave {
		seen[c.Key()] = true
	}
	var all []Point
	for round := 0; round <= cfg.Rounds && len(wave) > 0; round++ {
		pts, err := evaluate(wave)
		if err != nil {
			return cr, err
		}
		all = append(all, pts...)
		remaining := cfg.Budget - len(all)
		if remaining <= 0 || cfg.Seeds == 0 || round == cfg.Rounds {
			break
		}
		// Refinement: perturb each current frontier point Seeds times. The
		// frontier order is deterministic, the perturbation rng is keyed by
		// (round, frontier index, seed index), and duplicates are dropped —
		// so the next wave is a pure function of the config.
		wave = wave[:0]
		for fi, p := range ParetoFrontier(all) {
			for si := 0; si < cfg.Seeds; si++ {
				rnd := root.Split(fmt.Sprintf("refine-%d-%d-%d", round, fi, si))
				c, ok := tmpl.Perturb(p.Candidate, rnd)
				if !ok || seen[c.Key()] {
					continue
				}
				seen[c.Key()] = true
				wave = append(wave, c)
				if len(wave) >= remaining {
					break
				}
			}
			if len(wave) >= remaining {
				break
			}
		}
	}
	cr.Points = all
	cr.Evaluated = len(all)
	cr.Frontier = ParetoFrontier(all)
	return cr, nil
}

// scoreCandidate runs the whole portfolio (serially — parallelism lives at
// the candidate level) and aggregates the two frontier axes: portfolio-mean
// attainment, summed server-hours.
func scoreCandidate(tmpl Template, portfolio []Scenario, c Candidate) (Point, error) {
	p := Point{Candidate: c}
	for _, sc := range portfolio {
		ev, err := sc.Run(tmpl.Controller, c.Rules)
		if err != nil {
			return p, err
		}
		p.Evaluations = append(p.Evaluations, ev)
		p.Attainment += ev.Attainment
		p.ServerHours += ev.ServerHours
	}
	if n := len(portfolio); n > 0 {
		p.Attainment /= float64(n)
	}
	return p, nil
}

// ParetoFrontier returns the non-dominated subset of pts: points no other
// point beats on both attainment (higher is better) and server-hours
// (lower is better). Ties collapse to the earliest-evaluated candidate.
// The frontier is sorted by ServerHours ascending, then Attainment
// descending, then candidate key.
func ParetoFrontier(pts []Point) []Point {
	var out []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			betterOrEqual := q.Attainment >= p.Attainment && q.ServerHours <= p.ServerHours
			strictlyBetter := q.Attainment > p.Attainment || q.ServerHours < p.ServerHours
			if betterOrEqual && strictlyBetter {
				dominated = true
				break
			}
			// Exact tie on both axes: keep only the first occurrence.
			if !strictlyBetter && betterOrEqual && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].ServerHours != out[j].ServerHours {
			return out[i].ServerHours < out[j].ServerHours
		}
		if out[i].Attainment != out[j].Attainment {
			return out[i].Attainment > out[j].Attainment
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}
