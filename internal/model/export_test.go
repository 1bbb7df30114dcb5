package model

// Used only by this package's tests; no production code calls these.

// Latest returns the most recent successful fit.
func (t *OnlineTrainer) Latest() (TrainResult, bool) {
	return t.latest, t.trained
}

// EffectiveServiceTime returns S_b of Equation 6: the average service time
// per completed request in a multi-threaded server, S*(N)/N.
func (p Params) EffectiveServiceTime(n float64) float64 {
	if n < 1 {
		n = 1
	}
	return p.ServiceTime(n) / n
}

// MaxSystemThroughput returns 1/max(V·S/K) (Equations 2–4 with U_b = 1 and
// γ = 1): the throughput at which the bottleneck tier saturates.
func MaxSystemThroughput(demands []Demand) float64 {
	idx, demand := Bottleneck(demands)
	if idx < 0 || demand <= 0 {
		return 0
	}
	return 1 / demand
}

// Bottleneck returns the index of the tier with the largest per-server
// demand — the tier whose saturation caps system throughput (Equation 3) —
// and that demand. It returns -1 for an empty slice.
func Bottleneck(demands []Demand) (idx int, demand float64) {
	idx = -1
	for i, d := range demands {
		if pd := d.PerServerDemand(); pd > demand || idx == -1 {
			idx, demand = i, pd
		}
	}
	return idx, demand
}

// Demand is the per-tier service demand V_m·S_m of the Forced Flow Law
// (Equations 1–3), used to identify the bottleneck tier.
type Demand struct {
	Tier        string  `json:"tier"`
	VisitRatio  float64 `json:"visitRatio"`
	ServiceTime float64 `json:"serviceTime"` // per-visit, seconds
	Servers     int     `json:"servers"`
}

// PerServerDemand returns V·S/K: the demand an HTTP request places on each
// server of the tier.
func (d Demand) PerServerDemand() float64 {
	k := d.Servers
	if k < 1 {
		k = 1
	}
	return d.VisitRatio * d.ServiceTime / float64(k)
}

// MaxThroughput returns Max(X_max) of Equation 8: the tier's throughput at
// the optimal concurrency. When no interior optimum exists it returns 0.
func (p Params) MaxThroughput(servers int) float64 {
	nb, ok := p.OptimalConcurrency()
	if !ok || servers < 1 {
		return 0
	}
	return p.Throughput(nb, servers)
}

// Len returns the number of retained observations.
func (t *OnlineTrainer) Len() int { return len(t.obs) }
