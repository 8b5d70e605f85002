// Package mat provides the small dense linear-algebra substrate the rest of
// the library is built on: row-major dense matrices, vectors, and the handful
// of BLAS-level operations (matrix products, norms, orthonormalization
// helpers) that the SVD and matrix-factorization packages need.
//
// The implementation deliberately favours clarity and predictable memory
// layout over micro-optimized kernels; the matrices involved in the paper's
// experiments are at most a few thousand rows by a few hundred columns of
// latent factors, well within reach of straightforward loops.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix. It panics on non-positive
// dimensions because a zero-sized matrix is always a programming error in
// this library.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of row slices. All rows must have
// equal length.
func NewDenseFrom(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: NewDenseFrom requires non-empty data")
	}
	m := NewDense(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d want %d", r, len(row), m.cols))
		}
		copy(m.data[r*m.cols:(r+1)*m.cols], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row r, column c.
func (m *Dense) At(r, c int) float64 { return m.data[r*m.cols+c] }

// Set assigns the element at row r, column c.
func (m *Dense) Set(r, c int, v float64) { m.data[r*m.cols+c] = v }

// Row returns a mutable view of row r. Writing through the returned slice
// writes into the matrix.
func (m *Dense) Row(r int) []float64 { return m.data[r*m.cols : (r+1)*m.cols] }

// Col copies column c into a new slice.
func (m *Dense) Col(c int) []float64 {
	out := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		out[r] = m.data[r*m.cols+c]
	}
	return out
}

// SetCol overwrites column c with v (len(v) must equal Rows()).
func (m *Dense) SetCol(c int, v []float64) {
	if len(v) != m.rows {
		panic("mat: SetCol length mismatch")
	}
	for r := 0; r < m.rows; r++ {
		m.data[r*m.cols+c] = v[r]
	}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		base := r * m.cols
		for c := 0; c < m.cols; c++ {
			out.data[c*out.cols+r] = m.data[base+c]
		}
	}
	return out
}

// Mul returns the matrix product a·b. Panics on incompatible shapes.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Equal reports whether a and b have identical shape and all elements agree
// within tolerance tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
