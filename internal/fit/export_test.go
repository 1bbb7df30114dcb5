package fit

import (
	"errors"
	"fmt"
	"math"
)

// Used only by this package's tests; no production code calls these.

// LinearRegression fits y = slope*x + intercept by ordinary least squares
// and returns the coefficients and R². It requires at least two points.
func LinearRegression(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("fit: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("fit: need at least two points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-300 {
		return 0, 0, 0, ErrSingular
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n

	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i] = slope*x + intercept
	}
	r2 = RSquared(ys, preds)
	return slope, intercept, r2, nil
}
