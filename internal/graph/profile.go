package graph

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/rng"
)

// Profile is one request class's demand shape over the graph: a demand
// multiplier per node (1.0 = the node's base S0) and a visit-ratio
// override per edge.
type Profile struct {
	// NodeDemand scales each named node's base work (absent = 1.0).
	NodeDemand map[string]float64 `json:"nodeDemand,omitempty"`
	// EdgeVisits overrides the named edge's visit ratio, keyed "from->to"
	// (absent = the edge's configured default).
	EdgeVisits map[string]int `json:"edgeVisits,omitempty"`
}

// Class is one request type: a named slice of the request stream with its
// own admission priority, goodput SLO, demand profile and share of the
// traffic. A class set takes one of two forms. With every Weight zero the
// workload picks the class per request and injects it through
// InjectClass. With every Weight positive, Inject draws the class by
// weight: the weighted servlet mix of §II-A.
type Class struct {
	// Name identifies the class (e.g. "premium", "ViewStory").
	Name string `json:"name"`
	// Priority > 0 marks the class critical: never brownout- or
	// CoDel-shed. Bounded-queue rejection and deadlines still apply.
	Priority int `json:"priority,omitempty"`
	// SLO is the class's goodput threshold; zero falls back to the
	// resilience config's global SLA.
	SLO time.Duration `json:"slo,omitempty"`
	// Weight is the class's relative share of the traffic Inject draws.
	Weight float64 `json:"weight,omitempty"`
	// Profile is the class's demand shape.
	Profile Profile `json:"profile"`
}

// ErrBadClass is returned for invalid request classes.
var ErrBadClass = errors.New("graph: invalid request classes")

// resolvedProfile is a class's profile compiled against a topology:
// demand by node index, visits by edge index — no map lookups on the
// request path.
type resolvedProfile struct {
	name   string
	demand []float64
	visits []int
}

// resolveProfile compiles the profile p of the class named name against
// the app's topology, rejecting references to unknown nodes or edges.
func (a *App) resolveProfile(name string, p Profile) (resolvedProfile, error) {
	rp := resolvedProfile{
		name:   name,
		demand: make([]float64, len(a.nodes)),
		visits: make([]int, len(a.edges)),
	}
	for i, n := range a.nodes {
		rp.demand[i] = 1
		if d, ok := p.NodeDemand[n.spec.Name]; ok {
			if d <= 0 {
				return rp, fmt.Errorf("%w: class %q node %q demand %v", ErrBadClass, name, n.spec.Name, d)
			}
			rp.demand[i] = d
		}
	}
	for node := range p.NodeDemand {
		if _, ok := a.nodeByName[node]; !ok {
			return rp, fmt.Errorf("%w: class %q references unknown node %q", ErrBadClass, name, node)
		}
	}
	for i, e := range a.edges {
		rp.visits[i] = e.spec.visitsOrDefault()
		if v, ok := p.EdgeVisits[e.spec.key()]; ok {
			if v < 0 {
				return rp, fmt.Errorf("%w: class %q edge %s visits %d", ErrBadClass, name, e.spec.key(), v)
			}
			rp.visits[i] = v
		}
	}
	for key := range p.EdgeVisits {
		if _, ok := a.edgeByKey[key]; !ok {
			return rp, fmt.Errorf("%w: class %q references unknown edge %q", ErrBadClass, name, key)
		}
	}
	return rp, nil
}

// resolveClasses compiles the classes and, when they are weighted,
// builds the draw Inject picks them by.
func (a *App) resolveClasses(classes []Class) error {
	seen := make(map[string]bool, len(classes))
	weighted := len(classes) > 0 && classes[0].Weight > 0
	weights := make([]float64, 0, len(classes))
	for i, c := range classes {
		if c.Name == "" {
			return fmt.Errorf("%w: class %d has no name", ErrBadClass, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate class %q", ErrBadClass, c.Name)
		}
		seen[c.Name] = true
		if c.Priority < 0 {
			return fmt.Errorf("%w: class %q priority %d", ErrBadClass, c.Name, c.Priority)
		}
		if c.SLO < 0 {
			return fmt.Errorf("%w: class %q slo %v", ErrBadClass, c.Name, c.SLO)
		}
		if c.Weight < 0 || (c.Weight > 0) != weighted {
			return fmt.Errorf("%w: class %q weight %v (weights must be all zero or all positive)",
				ErrBadClass, c.Name, c.Weight)
		}
		rp, err := a.resolveProfile(c.Name, c.Profile)
		if err != nil {
			return err
		}
		a.classProfiles = append(a.classProfiles, rp)
		weights = append(weights, c.Weight)
	}
	if weighted {
		a.classDraw = rng.NewWeighted(weights)
	}
	a.classes = make([]classState, len(classes))
	return nil
}

// classState is the mutable per-class accumulator.
type classState struct {
	injected uint64
	inFlight int
	good     uint64
	rtSum    float64
	// disp is the class's one outcome tally; Completions and Errors
	// derive from it.
	disp metrics.DispositionCounts
	// bshed counts the class's brownout front-door sheds (a subset of the
	// class's Shed dispositions).
	bshed uint64
}

// ClassStat summarizes one traffic class's lifetime traffic.
type ClassStat struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	// Injected counts arrivals; InFlight is the instantaneous population.
	Injected uint64 `json:"injected"`
	InFlight int    `json:"inFlight"`
	// Completions/Errors partition finished requests; Good is the subset
	// of completions within the class SLO.
	Completions uint64  `json:"completions"`
	Errors      uint64  `json:"errors"`
	Good        uint64  `json:"good"`
	MeanRTms    float64 `json:"meanRTms"`
	// Dispositions is the class's full outcome taxonomy.
	Dispositions metrics.DispositionCounts `json:"dispositions"`
	// BrownoutShed is the subset of Dispositions.Shed dropped at the
	// front door by the degrade controller (0 and absent without it).
	BrownoutShed uint64 `json:"brownoutShed,omitempty"`
}

// ClassStats returns cumulative per-class statistics in class order
// (empty when no classes are configured).
func (a *App) ClassStats() []ClassStat {
	out := make([]ClassStat, len(a.cfg.Classes))
	for i := range a.cfg.Classes {
		c := &a.cfg.Classes[i]
		st := &a.classes[i]
		out[i] = ClassStat{
			Name:         c.Name,
			Priority:     c.Priority,
			Injected:     st.injected,
			InFlight:     st.inFlight,
			Completions:  st.disp.OK,
			Errors:       st.disp.Failed(),
			Good:         st.good,
			Dispositions: st.disp,
			BrownoutShed: st.bshed,
		}
		if st.disp.OK > 0 {
			out[i].MeanRTms = st.rtSum / float64(st.disp.OK) * 1000
		}
	}
	return out
}
