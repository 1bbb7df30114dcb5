package autotune

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dcm/internal/policy"
)

// A Knob is one named scalar degree of freedom in a policy.Rules: the
// bridge between the search (which thinks in float vectors) and the rule
// set (which the controllers consume). Min/Max are hard bounds — a
// template may tighten them but never widen them.
type Knob struct {
	Name     string
	Min, Max float64
	// Integer marks knobs whose values are rounded to whole numbers before
	// application (and whose grids are deduplicated after rounding).
	Integer bool
	// Apply writes the value into the rule set. Validation happens after
	// all knobs of a candidate are applied, so cross-field constraints
	// (lowerCPU < upperCPU) reject whole candidates, not single knobs.
	Apply func(r *policy.Rules, v float64)
}

// knobs is the registry, in stable declaration order.
var knobs = []Knob{
	{Name: "upperCPU", Min: 0.5, Max: 0.95,
		Apply: func(r *policy.Rules, v float64) { r.Scaling.UpperCPU = v }},
	{Name: "lowerCPU", Min: 0.1, Max: 0.6,
		Apply: func(r *policy.Rules, v float64) { r.Scaling.LowerCPU = v }},
	{Name: "lowerConsecutive", Min: 1, Max: 10, Integer: true,
		Apply: func(r *policy.Rules, v float64) { r.Scaling.LowerConsecutive = int(v) }},
	{Name: "maxServers", Min: 1, Max: 20, Integer: true,
		Apply: func(r *policy.Rules, v float64) { r.Scaling.MaxServers = int(v) }},
	{Name: "headroom", Min: 0.5, Max: 2.5,
		Apply: func(r *policy.Rules, v float64) { r.Allocation.Headroom = v }},
	{Name: "targetCPU", Min: 0.3, Max: 0.9,
		Apply: func(r *policy.Rules, v float64) { r.Target.TargetCPU = v }},
	{Name: "retryMaxAttempts", Min: 0, Max: 5, Integer: true,
		Apply: func(r *policy.Rules, v float64) { r.Retry.MaxAttempts = int(v) }},
	{Name: "retryBudgetRatio", Min: 0, Max: 1,
		Apply: func(r *policy.Rules, v float64) { r.Retry.BudgetRatio = v }},
}

// KnobByName looks a knob up.
func KnobByName(name string) (Knob, bool) {
	for _, k := range knobs {
		if k.Name == name {
			return k, true
		}
	}
	return Knob{}, false
}

// Tunable is one template entry: a knob with a (possibly tightened) search
// range and a grid resolution.
type Tunable struct {
	Knob string  `json:"knob"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Steps is the number of grid points across [Min, Max] (default 3).
	Steps int `json:"steps,omitempty"`
}

// Candidate is one point in a template's search space: the knob values and
// the complete rule set they produce.
type Candidate struct {
	// Values maps knob name to the applied value. JSON-marshalling a map
	// sorts its keys, so a candidate's rendering is deterministic.
	Values map[string]float64 `json:"values"`
	Rules  policy.Rules       `json:"rules"`
}

// Key renders the candidate's values as a canonical string, for
// deduplication and labelling: knob names in sorted order, values in %g.
func (c Candidate) Key() string {
	names := make([]string, 0, len(c.Values))
	for n := range c.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+"="+strconv.FormatFloat(c.Values[n], 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// validateTunables checks every tunable against the registry.
func validateTunables(ts []Tunable) error {
	if len(ts) == 0 {
		return fmt.Errorf("autotune: template has no tunables")
	}
	seen := map[string]bool{}
	for _, tn := range ts {
		k, ok := KnobByName(tn.Knob)
		if !ok {
			return fmt.Errorf("autotune: unknown knob %q", tn.Knob)
		}
		if seen[tn.Knob] {
			return fmt.Errorf("autotune: knob %q listed twice", tn.Knob)
		}
		seen[tn.Knob] = true
		if tn.Min > tn.Max {
			return fmt.Errorf("autotune: knob %q range [%g, %g] inverted", tn.Knob, tn.Min, tn.Max)
		}
		if tn.Min < k.Min || tn.Max > k.Max {
			return fmt.Errorf("autotune: knob %q range [%g, %g] outside hard bounds [%g, %g]",
				tn.Knob, tn.Min, tn.Max, k.Min, k.Max)
		}
	}
	return nil
}

// gridValues returns the tunable's grid points: Steps values linearly
// spaced across [Min, Max], rounded and deduplicated for integer knobs.
func gridValues(tn Tunable, k Knob) []float64 {
	steps := tn.Steps
	if steps < 2 {
		steps = 3
	}
	if tn.Min == tn.Max {
		steps = 1
	}
	var out []float64
	for i := 0; i < steps; i++ {
		v := tn.Min
		if steps > 1 {
			v = tn.Min + (tn.Max-tn.Min)*float64(i)/float64(steps-1)
		}
		if k.Integer {
			v = math.Round(v)
		}
		if n := len(out); n > 0 && out[n-1] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// clampValue forces v into the tunable's range (and onto the integer
// lattice for integer knobs).
func clampValue(tn Tunable, k Knob, v float64) float64 {
	if k.Integer {
		v = math.Round(v)
	}
	if v < tn.Min {
		v = tn.Min
		if k.Integer {
			v = math.Ceil(v)
		}
	}
	if v > tn.Max {
		v = tn.Max
		if k.Integer {
			v = math.Floor(v)
		}
	}
	return v
}
