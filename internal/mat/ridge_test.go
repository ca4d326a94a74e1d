package mat

import (
	"errors"
	"fmt"
)

// The ridge solve below is the per-system composition the ALS solver used
// before it grouped factor rows by observation pattern: assemble one Gram
// matrix, factor it with CholeskyInto, substitute with CholeskySolveInto.
// It stays here as a test fixture so the ridge tests keep pinning that the
// production Cholesky kernels solve ridge systems exactly and without
// allocating.

// RidgeScratch holds the working storage of RidgeSolveInto so a caller
// solving many same-rank ridge systems allocates once instead of once per
// solve. The zero value is
// usable; buffers grow on demand and are reused across ranks.
type RidgeScratch struct {
	gram *Dense
	chol *Dense
	rhs  []float64
	y    []float64
}

// NewRidgeScratch returns scratch pre-sized for rank-r solves.
func NewRidgeScratch(r int) *RidgeScratch {
	s := &RidgeScratch{}
	s.reset(r)
	return s
}

// reset sizes the buffers for rank r and zeroes the accumulators.
func (s *RidgeScratch) reset(r int) {
	if s.gram == nil || s.gram.rows < r {
		s.gram = NewDense(r, r)
		s.chol = NewDense(r, r)
		s.rhs = make([]float64, r)
		s.y = make([]float64, r)
		return
	}
	if s.gram.rows > r {
		// Reshape the existing backing arrays down to r×r so row strides
		// match the smaller rank.
		s.gram = NewDenseData(r, r, s.gram.data[:r*r])
		s.chol = NewDenseData(r, r, s.chol.data[:r*r])
		s.rhs = s.rhs[:r]
		s.y = s.y[:r]
	}
	for i := range s.gram.data {
		s.gram.data[i] = 0
	}
	for i := range s.rhs {
		s.rhs[i] = 0
	}
}

// ErrRidgeNoObservations is returned by the ridge solvers when called with
// an empty system.
var ErrRidgeNoObservations = errors.New("mat: ridge with no observations")

// RidgeSolveInto solves (AᵀA + λI) x = Aᵀ b into dst (length must equal the
// feature dimension) without allocating: the Gram matrix, Cholesky factor,
// and substitution buffers live in s. It is the allocation-free core of
// RidgeSolve.
func RidgeSolveInto(features [][]float64, targets []float64, lambda float64, dst []float64, s *RidgeScratch) error {
	if len(features) != len(targets) {
		panic(fmt.Sprintf("mat: ridge rows %d != targets %d", len(features), len(targets)))
	}
	if len(features) == 0 {
		return ErrRidgeNoObservations
	}
	r := len(features[0])
	if len(dst) != r {
		panic(fmt.Sprintf("mat: ridge destination %d != rank %d", len(dst), r))
	}
	s.reset(r)
	gd := s.gram.data
	rhs := s.rhs
	for row, f := range features {
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
		t := targets[row]
		for i := 0; i < r; i++ {
			fi := f[i]
			rhs[i] += fi * t
			gi := gd[i*r : i*r+r]
			for j := 0; j < r; j++ {
				gi[j] += fi * f[j]
			}
		}
	}
	for i := 0; i < r; i++ {
		gd[i*r+i] += lambda
	}
	if err := CholeskyInto(s.chol, s.gram); err != nil {
		return err
	}
	CholeskySolveInto(s.chol, rhs, dst, s.y)
	return nil
}

// RidgeSolve solves (AᵀA + λI) x = Aᵀ b for the rows of A given as a slice
// of feature vectors. RidgeSolveInto is the allocation-free variant.
func RidgeSolve(features [][]float64, targets []float64, lambda float64) ([]float64, error) {
	if len(features) == 0 {
		return nil, ErrRidgeNoObservations
	}
	dst := make([]float64, len(features[0]))
	if err := RidgeSolveInto(features, targets, lambda, dst, NewRidgeScratch(len(dst))); err != nil {
		return nil, err
	}
	return dst, nil
}
