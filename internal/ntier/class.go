package ntier

import "time"

// RequestClass is one request type of the application: a named slice of
// the request stream with its own admission priority, goodput SLO, demand
// profile and share of the traffic. A class set takes one of two forms:
// with every Weight zero the workload picks the class per request and
// injects it through InjectClass; with every Weight positive Inject draws
// the class by weight, as the RUBBoS servlet mix does (DefaultServlets).
type RequestClass struct {
	// Name identifies the class (e.g. "premium", "ViewStory").
	Name string `json:"name"`
	// Priority is the admission priority. Classes with Priority > 0 are
	// critical: the CoDel shedder never sheds them, so under overload the
	// best-effort classes absorb the shedding first. Bounded-queue
	// rejection and deadlines still apply to every class.
	Priority int `json:"priority,omitempty"`
	// SLO is the class's goodput threshold: completions within SLO count
	// as good. Zero falls back to the resilience config's global SLA.
	SLO time.Duration `json:"slo,omitempty"`
	// Weight is the class's relative share of the traffic Inject draws.
	Weight float64 `json:"weight,omitempty"`
	// AppDemand scales the Tomcat CPU work (0 = the default 1.0).
	AppDemand float64 `json:"appDemand,omitempty"`
	// Queries is the number of sequential MySQL queries per request
	// (0 = the app's QueriesPerRequest default).
	Queries int `json:"queries,omitempty"`
	// QueryDemand scales each query's base work (0 = the default 1.0).
	QueryDemand float64 `json:"queryDemand,omitempty"`
}

// DefaultServlets returns a RUBBoS-style browse-only mix of ten weighted
// request classes. RUBBoS provides 24 servlets (§II-A); the browse-only
// CPU-intensive subset the paper uses differs in application CPU demand
// and in how many (and how heavy) database queries each issues. The mix
// is normalized so its weighted mean matches the single-class flow the
// calibration uses: mean app demand 1.0, mean visit ratio ≈ 2 queries per
// request — so enabling the mix changes the *distribution* of work, not
// its mean.
func DefaultServlets() []RequestClass {
	return []RequestClass{
		{Name: "StoriesOfTheDay", Weight: 0.25, AppDemand: 0.6, Queries: 1, QueryDemand: 0.7},
		{Name: "ViewStory", Weight: 0.20, AppDemand: 0.8, Queries: 2, QueryDemand: 0.85},
		{Name: "BrowseCategories", Weight: 0.10, AppDemand: 0.5, Queries: 2, QueryDemand: 1.0},
		{Name: "BrowseStoriesByCategory", Weight: 0.12, AppDemand: 1.0, Queries: 2, QueryDemand: 1.0},
		{Name: "ViewComment", Weight: 0.10, AppDemand: 0.9, Queries: 2, QueryDemand: 1.0},
		{Name: "OlderStories", Weight: 0.08, AppDemand: 1.2, Queries: 3, QueryDemand: 1.0},
		{Name: "SearchInStories", Weight: 0.06, AppDemand: 2.2, Queries: 3, QueryDemand: 1.4},
		{Name: "SearchInAuthors", Weight: 0.04, AppDemand: 2.2, Queries: 3, QueryDemand: 1.4},
		{Name: "SearchInComments", Weight: 0.03, AppDemand: 2.8, Queries: 4, QueryDemand: 1.4},
		{Name: "AuthorInformation", Weight: 0.02, AppDemand: 1.5, Queries: 3, QueryDemand: 1.0},
	}
}
