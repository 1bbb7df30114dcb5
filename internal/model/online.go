package model

import (
	"math"
)

// OnlineTrainer implements §III-C's online estimation: "We can determine
// these parameters via online monitoring of the whole system, then regress
// based on the measured system throughput and the thread allocation of
// each server in the bottleneck tier."
//
// It accumulates (per-server concurrency, per-server throughput) samples
// from the fine-grained monitor and refits Equation 7 on demand. The
// approach is principled at any utilization: by Little's law a
// work-conserving server's operating point satisfies n = X·S*(n), so every
// measured (mean-active, throughput) pair lies on the N/S*(N) curve —
// saturated or not.
//
// The trainer refuses to fit until the observations span enough distinct
// concurrency levels over a wide enough range; a fit from a narrow
// operating band would extrapolate the optimum from no evidence (the same
// guard model.Train applies to the optimum itself).
type OnlineTrainer struct {
	opts TrainOptions

	capacity    int
	minDistinct int
	minSpread   float64
	minPeakDrop float64

	obs  []Observation
	next int
	full bool

	latest  TrainResult
	trained bool
}

// OnlineConfig tunes an OnlineTrainer. The zero value selects defaults.
type OnlineConfig struct {
	// Capacity is the observation ring size (default 512).
	Capacity int
	// MinDistinct is the number of distinct concurrency levels (rounded to
	// integers) required before fitting (default 6).
	MinDistinct int
	// MinSpread is the required ratio between the largest and smallest
	// observed concurrency (default 3).
	MinSpread float64
	// MinPeakDrop is the relative throughput decline the fitted curve must
	// predict between its optimum and the largest observed concurrency for
	// the fit to be considered actionable (default 0.02). A curve that is
	// flat across the observed range gives no evidence for *where* its
	// optimum is — the fitted peak location would be noise.
	MinPeakDrop float64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.MinDistinct <= 0 {
		c.MinDistinct = 6
	}
	if c.MinSpread <= 1 {
		c.MinSpread = 3
	}
	if c.MinPeakDrop <= 0 {
		c.MinPeakDrop = 0.02
	}
	return c
}

// NewOnlineTrainer returns an empty trainer. opts configures the
// underlying Train call (gauge anchoring, server count).
func NewOnlineTrainer(opts TrainOptions, cfg OnlineConfig) *OnlineTrainer {
	cfg = cfg.withDefaults()
	return &OnlineTrainer{
		opts:        opts,
		capacity:    cfg.Capacity,
		minDistinct: cfg.MinDistinct,
		minSpread:   cfg.MinSpread,
		minPeakDrop: cfg.MinPeakDrop,
		obs:         make([]Observation, 0, cfg.Capacity),
	}
}

// Observe adds one monitoring sample. Samples outside the curve's domain
// (non-positive concurrency or throughput — e.g. an idle control period)
// are ignored. Fractional concurrencies below 1 are legitimate low-load
// operating points: by Little's law they sit on the linear head of the
// same curve and pin its intercept.
func (t *OnlineTrainer) Observe(concurrency, throughput float64) {
	if concurrency <= 0 || throughput <= 0 ||
		math.IsNaN(concurrency) || math.IsNaN(throughput) ||
		math.IsInf(concurrency, 0) || math.IsInf(throughput, 0) {
		return
	}
	o := Observation{Concurrency: concurrency, Throughput: throughput}
	if len(t.obs) < t.capacity {
		t.obs = append(t.obs, o)
		return
	}
	// Ring overwrite: keep the newest window of operating points.
	t.obs[t.next] = o
	t.next = (t.next + 1) % t.capacity
	t.full = true
}

// Identifiable reports whether the retained observations span enough
// distinct concurrency levels to support a fit.
func (t *OnlineTrainer) Identifiable() bool {
	if len(t.obs) < t.minDistinct {
		return false
	}
	distinct := make(map[int]bool, len(t.obs))
	minN, maxN := math.Inf(1), 0.0
	for _, o := range t.obs {
		// Log-spaced buckets: 0.5 and 0.7 are one level, 20 and 21 are one
		// level, 20 and 40 are distinct.
		distinct[int(math.Round(math.Log(o.Concurrency)*4))] = true
		if o.Concurrency < minN {
			minN = o.Concurrency
		}
		if o.Concurrency > maxN {
			maxN = o.Concurrency
		}
	}
	return len(distinct) >= t.minDistinct && maxN >= t.minSpread*minN
}

// TryFit refits the model when the data are identifiable. On success the
// result becomes Latest; on failure (not identifiable, no interior
// optimum, or a degenerate fit) the previous result is kept. ok reports
// whether this call produced a fresh fit.
func (t *OnlineTrainer) TryFit() (TrainResult, bool) {
	if !t.Identifiable() {
		return t.latest, false
	}
	obs := make([]Observation, len(t.obs))
	copy(obs, t.obs)
	res, err := Train(obs, t.opts)
	if err != nil {
		return t.latest, false
	}
	// Flatness guard: the fitted optimum is only actionable when the data
	// range actually exhibits a decline beyond it.
	maxN := 0.0
	for _, o := range obs {
		if o.Concurrency > maxN {
			maxN = o.Concurrency
		}
	}
	nb, ok := res.Params.OptimalConcurrency()
	if !ok {
		return t.latest, false
	}
	peakX := res.Params.Throughput(nb, 1)
	edgeX := res.Params.Throughput(maxN, 1)
	if peakX <= 0 || (peakX-edgeX)/peakX < t.minPeakDrop {
		return t.latest, false
	}
	t.latest = res
	t.trained = true
	return res, true
}
