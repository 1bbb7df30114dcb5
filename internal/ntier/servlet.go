package ntier

import (
	"errors"
	"fmt"
)

// Servlet is one request class of the application. RUBBoS provides 24
// servlets (§II-A); the browse-only CPU-intensive subset used by the paper
// is modeled here as a weighted mix of classes that differ in application
// CPU demand and in how many (and how heavy) database queries they issue.
type Servlet struct {
	// Name identifies the class (e.g. "ViewStory").
	Name string `json:"name"`
	// Weight is the class's relative share of the request mix.
	Weight float64 `json:"weight"`
	// AppDemand scales the Tomcat CPU work (1.0 = the tier's base S0).
	AppDemand float64 `json:"appDemand"`
	// Queries is the number of sequential MySQL queries the class issues.
	Queries int `json:"queries"`
	// QueryDemand scales each query's base work.
	QueryDemand float64 `json:"queryDemand"`
}

// DefaultServlets returns a RUBBoS-style browse-only mix of ten request
// classes. The mix is normalized so its weighted mean matches the
// single-class flow the calibration uses: mean app demand 1.0, mean visit
// ratio ≈ 2 queries per request — so enabling the mix changes the
// *distribution* of work, not its mean.
func DefaultServlets() []Servlet {
	return []Servlet{
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

// ErrBadServlets is returned for invalid servlet mixes.
var ErrBadServlets = errors.New("ntier: invalid servlet mix")

// validateServlets checks a mix and returns its total weight.
func validateServlets(servlets []Servlet) (total float64, err error) {
	seen := make(map[string]bool, len(servlets))
	for i, s := range servlets {
		switch {
		case s.Name == "":
			return 0, fmt.Errorf("%w: servlet %d has no name", ErrBadServlets, i)
		case seen[s.Name]:
			return 0, fmt.Errorf("%w: duplicate servlet %q", ErrBadServlets, s.Name)
		case s.Weight <= 0:
			return 0, fmt.Errorf("%w: servlet %q weight %v", ErrBadServlets, s.Name, s.Weight)
		case s.AppDemand <= 0:
			return 0, fmt.Errorf("%w: servlet %q app demand %v", ErrBadServlets, s.Name, s.AppDemand)
		case s.Queries < 0:
			return 0, fmt.Errorf("%w: servlet %q queries %d", ErrBadServlets, s.Name, s.Queries)
		case s.Queries > 0 && s.QueryDemand <= 0:
			return 0, fmt.Errorf("%w: servlet %q query demand %v", ErrBadServlets, s.Name, s.QueryDemand)
		}
		seen[s.Name] = true
		total += s.Weight
	}
	return total, nil
}
