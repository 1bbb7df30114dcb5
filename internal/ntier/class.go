package ntier

import "dcm/internal/graph"

// DefaultServlets returns a RUBBoS-style browse-only mix of ten weighted
// request classes. RUBBoS provides 24 servlets (§II-A); the browse-only
// CPU-intensive subset the paper uses differs in application CPU demand
// and in how many (and how heavy) database queries each issues. The mix
// is normalized so its weighted mean matches the single-class flow the
// calibration uses: mean app demand 1.0, mean visit ratio ≈ 2 queries per
// request — so enabling the mix changes the *distribution* of work, not
// its mean.
func DefaultServlets() []graph.Class {
	return []graph.Class{
		servlet("StoriesOfTheDay", 0.25, 0.6, 1, 0.7),
		servlet("ViewStory", 0.20, 0.8, 2, 0.85),
		servlet("BrowseCategories", 0.10, 0.5, 2, 1.0),
		servlet("BrowseStoriesByCategory", 0.12, 1.0, 2, 1.0),
		servlet("ViewComment", 0.10, 0.9, 2, 1.0),
		servlet("OlderStories", 0.08, 1.2, 3, 1.0),
		servlet("SearchInStories", 0.06, 2.2, 3, 1.4),
		servlet("SearchInAuthors", 0.04, 2.2, 3, 1.4),
		servlet("SearchInComments", 0.03, 2.8, 4, 1.4),
		servlet("AuthorInformation", 0.02, 1.5, 3, 1.0),
	}
}

// servlet builds one chain request class: appDemand scales the app
// node's work, queries sets the app→db visit ratio and queryDemand scales
// each query's work. Only the non-zero knobs enter the profile; the graph
// runs an absent one at its default (demand 1.0, QueriesPerRequest
// queries).
func servlet(name string, weight, appDemand float64, queries int, queryDemand float64) graph.Class {
	c := graph.Class{Name: name, Weight: weight, Profile: graph.Profile{NodeDemand: map[string]float64{}}}
	if appDemand != 0 {
		c.Profile.NodeDemand[TierApp] = appDemand
	}
	if queryDemand != 0 {
		c.Profile.NodeDemand[TierDB] = queryDemand
	}
	if queries != 0 {
		c.Profile.EdgeVisits = map[string]int{TierApp + "->" + TierDB: queries}
	}
	return c
}
