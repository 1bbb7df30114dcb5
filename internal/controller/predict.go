package controller

// Predictive scaling — the extension §VI positions DCM as complementary
// to: "Predictive approaches could avoid the long setup time and achieve
// good performance when the workload has intrinsic patterns."
//
// The forecaster is Holt's double exponential smoothing over each tier's
// per-period CPU utilization; the VM level scales out when the *forecast*
// at one VM-setup horizon crosses the upper threshold, hiding (part of)
// the control-period + preparation-period delay behind the ramp of a
// burst. Everything else — thresholds, "slow turn off", the APP-agent —
// is unchanged, so predictive DCM isolates exactly the value of
// anticipation.

import "dcm/internal/policy"

// holt is Holt's linear (double) exponential smoothing.
type holt struct {
	alpha, beta  float64
	level, trend float64
	n            int
}

// newHolt returns a smoother with the given parameters (clamped into
// (0, 1]).
func newHolt(alpha, beta float64) *holt {
	clamp := func(v, def float64) float64 {
		if v <= 0 || v > 1 {
			return def
		}
		return v
	}
	return &holt{alpha: clamp(alpha, 0.5), beta: clamp(beta, 0.3)}
}

// observe feeds one measurement.
func (h *holt) observe(v float64) {
	switch h.n {
	case 0:
		h.level = v
	case 1:
		h.trend = v - h.level
		h.level = v
	default:
		prevLevel := h.level
		h.level = h.alpha*v + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	}
	h.n++
}

// forecast extrapolates steps periods ahead. With fewer than two
// observations it returns the last level (no trend evidence).
func (h *holt) forecast(steps float64) float64 {
	if h.n < 2 {
		return h.level
	}
	return h.level + steps*h.trend
}

// predictiveHorizon is the forecast lookahead in control periods: one
// preparation period plus one control period.
const predictiveHorizon = 2

// predictiveVMLevel wraps the threshold VM level with Holt forecasting.
type predictiveVMLevel struct {
	vm        *vmLevel
	smoothers map[string]*holt
}

func newPredictiveVMLevel(rules policy.ScalingRules) (*predictiveVMLevel, error) {
	vm, err := newVMLevel(rules)
	if err != nil {
		return nil, err
	}
	return &predictiveVMLevel{vm: vm, smoothers: make(map[string]*holt)}, nil
}

// evaluate runs the reactive policy on a view whose per-tier CPU has been
// replaced by max(current, forecast): a rising trend triggers the
// scale-out early, while scale-in still requires the measured utilization
// itself to stay low (forecasts never accelerate removals, only
// additions — the predictive analogue of "quick start, slow turn off").
func (p *predictiveVMLevel) evaluate(view SystemView) ([]Action, []Hold) {
	adjusted := SystemView{
		At:         view.At,
		Tiers:      make(map[string]TierStats, len(view.Tiers)),
		Allocation: view.Allocation,
	}
	for name, ts := range view.Tiers {
		// Blackout periods carry no measurement: feeding their zero CPU
		// into the smoother would fabricate a collapsing trend. Pass the
		// tier through untouched; the reactive level holds it anyway.
		if ts.NoData {
			adjusted.Tiers[name] = ts
			continue
		}
		sm := p.smoothers[name]
		if sm == nil {
			sm = newHolt(0, 0) // the default smoothing, alpha 0.5 and beta 0.3
			p.smoothers[name] = sm
		}
		sm.observe(ts.MeanCPU)
		if f := sm.forecast(predictiveHorizon); f > ts.MeanCPU {
			ts.MeanCPU = f
		}
		adjusted.Tiers[name] = ts
	}
	return p.vm.evaluate(adjusted)
}
