package mat

import (
	"fmt"
	"math"
)

// This file holds the allocation-free kernel variants behind Cholesky and
// CholeskySolve. The ALS matrix-completion solver factors one small Gram
// matrix per observation pattern and substitutes once per factor row per
// sweep — hundreds of thousands of times per completion — so these kernels
// factor in place and substitute in place, with slice-based inner loops
// instead of bounds-checked At/Set. The allocating wrappers in dense.go
// delegate here; both produce bit-identical results (the summation order is
// unchanged).

// CholeskyInto computes the lower-triangular factor L with a = L Lᵀ into l,
// which must be a square matrix of a's shape (its prior contents are
// overwritten, including the strict upper triangle, which is zeroed). Only
// a's lower triangle is read. It returns ErrNotPositiveDefinite when a is
// not (numerically) symmetric positive definite.
func CholeskyInto(l, a *Dense) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: cholesky of non-square %dx%d", a.rows, a.cols))
	}
	if l.rows != a.rows || l.cols != a.cols {
		panic(fmt.Sprintf("mat: cholesky destination %dx%d for %dx%d input", l.rows, l.cols, a.rows, a.cols))
	}
	n := a.rows
	ld := l.data
	for i := range ld {
		ld[i] = 0
	}
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+n]
		d := a.data[j*n+j]
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		for i := j + 1; i < n; i++ {
			li := ld[i*n : i*n+n]
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / ljj
		}
	}
	return nil
}

// CholeskySolveInto solves a x = b given the Cholesky factor l of a,
// writing the solution into x and using y as forward-substitution scratch.
// b, x, and y must all have length n; x may alias b, y must not alias
// either.
func CholeskySolveInto(l *Dense, b, x, y []float64) {
	n := l.rows
	if len(b) != n || len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mat: cholesky solve dimensions %d/%d/%d != %d", len(b), len(x), len(y), n))
	}
	ld := l.data
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		li := ld[i*n : i*n+n]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Back substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
}
