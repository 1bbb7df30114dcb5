package ntier

import (
	"errors"
	"fmt"
	"time"
)

// RequestClass is one traffic class of a class-mixed workload: a named
// slice of the request stream with its own admission priority, goodput
// SLO and demand profile. Classes are the workload library's view of the
// application (the generator picks a class per request and injects it via
// InjectClass); they are coarser than servlets — a class says how a
// request is treated, a servlet says what work it does — and the two mixes
// are mutually exclusive in one Config.
type RequestClass struct {
	// Name identifies the class (e.g. "premium").
	Name string `json:"name"`
	// Priority is the admission priority. Classes with Priority > 0 are
	// critical: the CoDel shedder never sheds them, so under overload the
	// best-effort classes absorb the shedding first. Bounded-queue
	// rejection and deadlines still apply to every class.
	Priority int `json:"priority,omitempty"`
	// SLO is the class's goodput threshold: completions within SLO count
	// as good. Zero falls back to the resilience config's global SLA.
	SLO time.Duration `json:"slo,omitempty"`
	// AppDemand scales the Tomcat CPU work (0 = the default 1.0).
	AppDemand float64 `json:"appDemand,omitempty"`
	// Queries is the number of sequential MySQL queries per request
	// (0 = the app's QueriesPerRequest default).
	Queries int `json:"queries,omitempty"`
	// QueryDemand scales each query's base work (0 = the default 1.0).
	QueryDemand float64 `json:"queryDemand,omitempty"`
}

// ErrBadClasses is returned for invalid traffic-class sets.
var ErrBadClasses = errors.New("ntier: invalid request classes")

// validateClasses checks a class set and fills demand defaults in place.
func validateClasses(classes []RequestClass, queriesDefault int) error {
	seen := make(map[string]bool, len(classes))
	for i := range classes {
		c := &classes[i]
		switch {
		case c.Name == "":
			return fmt.Errorf("%w: class %d has no name", ErrBadClasses, i)
		case seen[c.Name]:
			return fmt.Errorf("%w: duplicate class %q", ErrBadClasses, c.Name)
		case c.Priority < 0:
			return fmt.Errorf("%w: class %q priority %d", ErrBadClasses, c.Name, c.Priority)
		case c.SLO < 0:
			return fmt.Errorf("%w: class %q slo %v", ErrBadClasses, c.Name, c.SLO)
		case c.AppDemand < 0:
			return fmt.Errorf("%w: class %q app demand %v", ErrBadClasses, c.Name, c.AppDemand)
		case c.Queries < 0:
			return fmt.Errorf("%w: class %q queries %d", ErrBadClasses, c.Name, c.Queries)
		case c.QueryDemand < 0:
			return fmt.Errorf("%w: class %q query demand %v", ErrBadClasses, c.Name, c.QueryDemand)
		}
		seen[c.Name] = true
		if c.AppDemand == 0 {
			c.AppDemand = 1
		}
		if c.Queries == 0 {
			c.Queries = queriesDefault
		}
		if c.QueryDemand == 0 {
			c.QueryDemand = 1
		}
	}
	return nil
}
