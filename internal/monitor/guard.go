package monitor

import (
	"sort"
	"time"
)

// The sensor guard is the control plane's defense against corrupt census
// data: monitoring samples that arrive stale (delayed past the point they
// describe the present), with non-monotonic timestamps (a clock step or a
// replayed message), or with wildly outlying CPU readings (a measurement
// glitch) must not be averaged silently into the window the controllers
// act on. The guard filters per-VM samples before aggregation and can
// bridge short publication blackouts by holding the last live tier
// aggregate, flagged Smoothed so model training skips it.

// GuardConfig parameterizes the sensor guard. The zero value of each
// field selects its default; a nil *GuardConfig disables the guard
// entirely (byte-identical to the pre-guard pipeline).
type GuardConfig struct {
	// MaxStaleness rejects samples older than the control period consuming
	// them by more than this (default 5 s).
	MaxStaleness time.Duration `json:"maxStaleness,omitempty"`
	// OutlierWindow is the per-VM median filter's window length in
	// accepted samples (default 5).
	OutlierWindow int `json:"outlierWindow,omitempty"`
	// OutlierFactor is how far a CPU reading may sit from the window
	// median before it is replaced by the median (reading > median*factor
	// or < median/factor, with a small absolute allowance so near-idle
	// readings never trip it; default 4, values <= 1 disable the filter).
	OutlierFactor float64 `json:"outlierFactor,omitempty"`
	// SmoothPeriods is how many consecutive dark control periods the guard
	// bridges with the last live tier aggregate before conceding NoData
	// (default 2).
	SmoothPeriods int `json:"smoothPeriods,omitempty"`
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.MaxStaleness <= 0 {
		c.MaxStaleness = 5 * time.Second
	}
	if c.OutlierWindow <= 0 {
		c.OutlierWindow = 5
	}
	if c.OutlierFactor == 0 {
		c.OutlierFactor = 4
	}
	if c.SmoothPeriods <= 0 {
		c.SmoothPeriods = 2
	}
	return c
}

// GuardStats is the guard's lifetime filtering tally. Every field is a
// count of samples (or periods, for Smoothed) the guard intervened on.
type GuardStats struct {
	// Stale counts samples rejected for exceeding MaxStaleness.
	Stale uint64 `json:"stale,omitempty"`
	// NonMonotonic counts samples whose timestamp ran backwards relative
	// to the same VM's previous sample; they are clamped and flagged, not
	// silently averaged.
	NonMonotonic uint64 `json:"nonMonotonic,omitempty"`
	// Outliers counts CPU readings replaced by the window median.
	Outliers uint64 `json:"outliers,omitempty"`
	// Smoothed counts dark tier-periods bridged with held aggregates.
	Smoothed uint64 `json:"smoothed,omitempty"`
}

// TierAggregate is the per-tier slice of a control window the guard holds
// for blackout smoothing.
type TierAggregate struct {
	MeanCPU    float64
	MaxCPU     float64
	MeanActive float64
	Throughput float64
}

// vmGuard is the per-VM filter state.
type vmGuard struct {
	seen   bool
	lastAt time.Duration
	window []float64 // ring buffer of accepted CPU readings
	next   int
	filled bool
}

// heldTier is one tier's last live aggregate plus its dark-period streak.
type heldTier struct {
	agg  TierAggregate
	dark int
}

// Guard filters monitoring samples for one control plane. Deterministic
// and single-goroutine, like everything else on the simulation thread.
type Guard struct {
	cfg    GuardConfig
	vms    map[string]*vmGuard
	held   map[string]*heldTier
	sorted []float64 // scratch for the median
	stats  GuardStats
}

// NewGuard builds a guard with cfg's defaults filled.
func NewGuard(cfg GuardConfig) *Guard {
	return &Guard{
		cfg:  cfg.withDefaults(),
		vms:  make(map[string]*vmGuard),
		held: make(map[string]*heldTier),
	}
}

// Stats returns the lifetime filtering tally.
func (g *Guard) Stats() GuardStats { return g.stats }

// AdmitServer filters one per-VM sample against the control period ending
// at now. It returns false when the sample must be dropped (stale);
// otherwise it may repair the sample in place — clamping a non-monotonic
// timestamp to the VM's previous one and replacing an outlying CPU
// reading with the window median — and admits it.
func (g *Guard) AdmitServer(now time.Duration, s *ServerSample) bool {
	if now-s.At > g.cfg.MaxStaleness {
		g.stats.Stale++
		return false
	}
	vm := g.vms[s.VM]
	if vm == nil {
		vm = &vmGuard{window: make([]float64, 0, g.cfg.OutlierWindow)}
		g.vms[s.VM] = vm
	}
	if vm.seen && s.At < vm.lastAt {
		// A timestamp running backwards is a clock step or a replayed
		// message: clamp it forward to the last accepted instant and flag
		// it, rather than letting it skew any time-ordered consumer.
		g.stats.NonMonotonic++
		s.At = vm.lastAt
	}
	if f := g.cfg.OutlierFactor; f > 1 && vm.filled {
		m := g.median(vm.window)
		if lo, hi := m/f-0.05, m*f+0.05; s.CPUUtil < lo || s.CPUUtil > hi {
			g.stats.Outliers++
			s.CPUUtil = m
		}
	}
	vm.seen = true
	vm.lastAt = s.At
	if len(vm.window) < g.cfg.OutlierWindow {
		vm.window = append(vm.window, s.CPUUtil)
		vm.filled = len(vm.window) == g.cfg.OutlierWindow
	} else {
		vm.window[vm.next] = s.CPUUtil
		vm.next = (vm.next + 1) % g.cfg.OutlierWindow
	}
	return true
}

// median computes the window median into scratch space (no allocation
// after warm-up).
func (g *Guard) median(window []float64) float64 {
	g.sorted = append(g.sorted[:0], window...)
	sort.Float64s(g.sorted)
	n := len(g.sorted)
	if n%2 == 1 {
		return g.sorted[n/2]
	}
	return (g.sorted[n/2-1] + g.sorted[n/2]) / 2
}

// RecordTier stores a tier's live aggregate for blackout smoothing and
// resets its dark streak.
func (g *Guard) RecordTier(tier string, agg TierAggregate) {
	h := g.held[tier]
	if h == nil {
		h = &heldTier{}
		g.held[tier] = h
	}
	h.agg, h.dark = agg, 0
}

// FillDark is consulted for a tier whose control period got no samples.
// For up to SmoothPeriods consecutive dark periods it returns the held
// aggregate (ok=true) so the controller keeps steering on the last known
// state instead of mistaking silence for idleness; past that — or with no
// live aggregate ever recorded — it concedes (ok=false) and the period is
// a genuine NoData blackout.
func (g *Guard) FillDark(tier string) (TierAggregate, bool) {
	h := g.held[tier]
	if h == nil {
		return TierAggregate{}, false
	}
	h.dark++
	if h.dark > g.cfg.SmoothPeriods {
		return TierAggregate{}, false
	}
	g.stats.Smoothed++
	return h.agg, true
}
