package workload

import (
	"math"

	"dcm/internal/trace"
)

// Used only by this package's tests; no production code calls these.

// CVValue returns the analytic coefficient of variation of the law.
func (d DistSpec) CVValue() float64 {
	switch d.Dist {
	case DistConstant:
		return 0
	case DistExponential:
		return 1
	case DistLognormal:
		return d.CV
	case DistPareto:
		m := boundedParetoMean(d.Alpha, d.Min, d.Max)
		m2 := boundedParetoMoment2(d.Alpha, d.Min, d.Max)
		if m <= 0 || m2 <= m*m {
			return 0
		}
		return math.Sqrt(m2-m*m) / m
	}
	return 0
}

// MeanSeconds returns the analytic mean of the law in seconds (for the
// bounded Pareto the mean is derived from alpha and the bounds).
func (d DistSpec) MeanSeconds() float64 {
	switch d.Dist {
	case DistPareto:
		return boundedParetoMean(d.Alpha, d.Min, d.Max)
	default:
		return d.Mean
	}
}

// Users returns the desired user population.
func (c *ClosedLoop) Users() int { return c.want }

// Trace returns the trace being replayed.
func (t *TraceDriven) Trace() *trace.Trace { return t.trace }
