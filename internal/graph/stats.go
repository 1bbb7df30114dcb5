package graph

import (
	"dcm/internal/metrics"
)

// Stats is one interval's system metrics, as returned by TakeStats.
type Stats struct {
	// Completions and Errors are counts in the interval.
	Completions uint64 `json:"completions"`
	Errors      uint64 `json:"errors"`
	// MeanRTSeconds is the mean response time of requests completed in the
	// interval.
	MeanRTSeconds float64 `json:"meanRTSeconds"`
	// NodeResidence maps node name → mean per-visit residence time in the
	// interval (queue wait + burst + held downstream calls; for nodes
	// reached over pooled edges the window includes the connection-pool
	// wait). Together the entries attribute end-to-end latency to nodes.
	NodeResidence map[string]float64 `json:"nodeResidence,omitempty"`
	// RT is the full response-time summary for the interval.
	RT metrics.Summary `json:"rt"`
	// InFlight is the instantaneous number of requests in the system.
	InFlight int `json:"inFlight"`
	// Resilience outcome counts for requests finished in the interval
	// (subsets of Errors, except Good which is the subset of Completions
	// within the goodput SLA). All zero — and absent from JSON — when
	// resilience is disabled.
	Good        uint64 `json:"good,omitempty"`
	TimedOut    uint64 `json:"timedOut,omitempty"`
	Rejected    uint64 `json:"rejected,omitempty"`
	Shed        uint64 `json:"shed,omitempty"`
	BreakerOpen uint64 `json:"breakerOpen,omitempty"`
}

// TakeStats returns system metrics accumulated since the previous call and
// starts a new interval.
func (a *App) TakeStats() Stats {
	mean, _ := a.rts.TakeMean()
	now, prev := a.disp, a.lastDisp
	a.lastDisp = now
	st := Stats{
		Completions:   now.OK - prev.OK,
		Errors:        now.Failed() - prev.Failed(),
		MeanRTSeconds: mean,
		NodeResidence: make(map[string]float64, len(a.nodes)),
		RT:            metrics.SummarizeInPlace(a.rtWindow),
		InFlight:      a.inFlight,
		Good:          a.good.TakeDelta(),
		TimedOut:      now.TimedOut - prev.TimedOut,
		Rejected:      now.Rejected - prev.Rejected,
		Shed:          now.Shed - prev.Shed,
		BreakerOpen:   now.BreakerOpen - prev.BreakerOpen,
	}
	for _, n := range a.nodes {
		m, _ := n.res.TakeMean()
		st.NodeResidence[n.spec.Name] = m
	}
	// SummarizeInPlace sorted the window; it starts the next interval empty.
	a.rtWindow = a.rtWindow[:0]
	return st
}

// NodeVisitStat is one node's lifetime ledger snapshot.
type NodeVisitStat struct {
	// Started counts visits that reached the node (pick attempted).
	Started uint64 `json:"started"`
	// InFlight is the node's instantaneous visit population.
	InFlight int `json:"inFlight"`
	// Dispositions tallies the node's finished visits by outcome.
	Dispositions metrics.DispositionCounts `json:"dispositions"`
}

// NodeVisits returns the per-node conservation ledger keyed by node name.
func (a *App) NodeVisits() map[string]NodeVisitStat {
	out := make(map[string]NodeVisitStat, len(a.nodes))
	for _, n := range a.nodes {
		out[n.spec.Name] = NodeVisitStat{
			Started:      n.started,
			InFlight:     n.inFlight,
			Dispositions: n.visits,
		}
	}
	return out
}
