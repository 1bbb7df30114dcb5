package fit

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("fit: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("fit: invalid matrix shape %dx%d", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// SolveLinear solves A x = b by Gaussian elimination with partial pivoting.
// A must be square with len(b) rows. A and b are not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("fit: SolveLinear needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("fit: rhs length %d != %d", len(b), n)
	}
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				m.data[col*n+c], m.data[pivot*n+c] = m.data[pivot*n+c], m.data[col*n+c]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		sum := x[r]
		for c := r + 1; c < n; c++ {
			sum -= m.At(r, c) * x[c]
		}
		x[r] = sum / m.At(r, r)
	}
	return x, nil
}

// RSquared returns the coefficient of determination of predictions preds
// against observations ys. A constant observation vector yields 1 when the
// predictions match exactly and 0 otherwise.
func RSquared(ys, preds []float64) float64 {
	if len(ys) == 0 || len(ys) != len(preds) {
		return 0
	}
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i := range ys {
		d := ys[i] - preds[i]
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
