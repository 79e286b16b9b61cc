// Package approx implements Section 5.4 of the paper: profile-driven affine
// approximation of indexed (irregular) array references such as the x[col[k]]
// access of sparse matrix-vector multiplication.
//
// Given the profiled contents of the index arrays, the approximator samples
// the iteration space, fits one affine function per subscript dimension by
// least squares, and measures the normalized approximation error. References
// whose error exceeds the acceptance threshold are left unoptimized — over-
// or under-approximation is never a correctness issue, only a performance
// one, but a very bad fit (the paper cites >30%) would misplace data.
package approx

import (
	"math"

	"offchip/internal/ir"
	"offchip/internal/linalg"
)

// DefaultThreshold is the maximum acceptable normalized mean absolute error
// of a fitted subscript, as a fraction of the subscript dimension's extent.
const DefaultThreshold = 0.30

// DefaultMaxSamples bounds the number of profiled iterations per reference.
const DefaultMaxSamples = 4096

// Profiler fits affine access matrices to indexed references from profile
// data. It implements layout.Approximator.
type Profiler struct {
	// Store supplies the profiled index-array contents.
	Store *ir.DataStore
	// Threshold is the acceptance error bound (DefaultThreshold if zero).
	Threshold float64
	// MaxSamples bounds profiling work (DefaultMaxSamples if zero).
	MaxSamples int

	errs    map[*ir.Ref]float64
	sampled int // iterations profiled by the last Approximate call
}

// NewProfiler returns a Profiler over the given profiled index contents.
func NewProfiler(store *ir.DataStore) *Profiler {
	return &Profiler{Store: store, errs: map[*ir.Ref]float64{}}
}

// Err returns the measured normalized error of the last approximation of r
// (NaN if r was never approximated).
func (pr *Profiler) Err(r *ir.Ref) float64 {
	if e, ok := pr.errs[r]; ok {
		return e
	}
	return math.NaN()
}

// Approximate fits an affine access matrix to an indexed reference by
// sampling its profiled address stream. It returns (A, true) when every
// subscript dimension fits within the threshold, and (nil, false) otherwise.
// Purely affine references return their exact access matrix.
func (pr *Profiler) Approximate(r *ir.Ref, nest *ir.LoopNest) (*linalg.Mat, bool) {
	vars := nest.Vars()
	if !r.Indexed() {
		a, _ := r.AccessMatrix(vars)
		return a, true
	}
	thresh := pr.Threshold
	if thresh == 0 {
		thresh = DefaultThreshold
	}
	maxSamples := pr.MaxSamples
	if maxSamples == 0 {
		maxSamples = DefaultMaxSamples
	}

	// Sample the iteration space with a stride that caps the sample count.
	total := nest.TripCount()
	stride := int64(1)
	if total > int64(maxSamples) {
		// Ceiling division: a floor stride collects up to ~2× maxSamples
		// when total is just under a stride multiple.
		stride = (total + int64(maxSamples) - 1) / int64(maxSamples)
	}
	var iters [][]float64 // sampled iteration vectors (with 1 appended)
	var coords [][]int64  // touched element coordinates
	var k int64           // iterations walked before the current run
	cn := nest.Compile(pr.Store)
	cr := cn.CompileRef(r)
	last := len(vars) - 1
	cn.Iterate(func(iv []int64, lo, hi int64) bool {
		for v := lo + (stride-k%stride)%stride; v < hi; v += stride {
			iv[last] = v
			row := make([]float64, len(iv)+1)
			for i, x := range iv {
				row[i] = float64(x)
			}
			row[len(iv)] = 1
			iters = append(iters, row)
			coords = append(coords, cr.Coord(iv, make(linalg.Vec, len(r.Subs))))
		}
		k += hi - lo
		return true
	})
	pr.sampled = len(iters)
	if len(iters) == 0 {
		return nil, false
	}

	n := len(r.Subs)
	m := len(vars)
	a := linalg.NewMat(n, m)
	worst := 0.0
	for dim := 0; dim < n; dim++ {
		if _, indexed := r.IndexSubs[dim]; !indexed {
			// Exact affine subscript: copy its coefficients.
			for j, v := range vars {
				a.Set(dim, j, r.Subs[dim].Coeff(v))
			}
			continue
		}
		y := make([]float64, len(coords))
		for i, c := range coords {
			y[i] = float64(c[dim])
		}
		coef, ok := leastSquares(iters, y)
		if !ok {
			pr.errs[r] = math.Inf(1)
			return nil, false
		}
		// Measure the fit error as mean |ŷ−y| normalized by the mean
		// absolute deviation of y itself: 0 for a perfect affine pattern,
		// ≈1 when the fit explains nothing (uniform scatter) — so the
		// threshold rejects references whose dense pattern is not affine,
		// not merely noisy.
		var mean float64
		for _, v := range y {
			mean += v
		}
		mean /= float64(len(y))
		var sumAbs, spread float64
		for i, row := range iters {
			pred := 0.0
			for j, c := range coef {
				pred += c * row[j]
			}
			sumAbs += math.Abs(pred - y[i])
			spread += math.Abs(y[i] - mean)
		}
		mae := sumAbs / float64(len(iters))
		mad := spread / float64(len(iters))
		var errNorm float64
		switch {
		case mae == 0:
			errNorm = 0
		case mad < 1e-9:
			errNorm = 1
		default:
			errNorm = mae / mad
		}
		if errNorm > worst {
			worst = errNorm
		}
		if errNorm > thresh {
			pr.errs[r] = errNorm
			return nil, false
		}
		for j := 0; j < m; j++ {
			a.Set(dim, j, int64(math.Round(coef[j])))
		}
	}
	pr.errs[r] = worst
	return a, true
}

// leastSquares solves min ‖X·c − y‖₂ by normal equations with partial
// pivoting; ok is false for a singular system.
func leastSquares(x [][]float64, y []float64) (coef []float64, ok bool) {
	cols := len(x[0])
	// Build XᵀX and Xᵀy.
	xtx := make([][]float64, cols)
	xty := make([]float64, cols)
	for i := range xtx {
		xtx[i] = make([]float64, cols)
	}
	for r, row := range x {
		for i := 0; i < cols; i++ {
			xty[i] += row[i] * y[r]
			for j := 0; j < cols; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < cols; col++ {
		piv := col
		for r := col + 1; r < cols; r++ {
			if math.Abs(xtx[r][col]) > math.Abs(xtx[piv][col]) {
				piv = r
			}
		}
		if math.Abs(xtx[piv][col]) < 1e-9 {
			// Rank-deficient (e.g. a loop variable with a single sampled
			// value): treat the column as unused rather than failing.
			xtx[col][col] = 1
			xty[col] = 0
			continue
		}
		xtx[col], xtx[piv] = xtx[piv], xtx[col]
		xty[col], xty[piv] = xty[piv], xty[col]
		for r := 0; r < cols; r++ {
			if r == col {
				continue
			}
			f := xtx[r][col] / xtx[col][col]
			for c := col; c < cols; c++ {
				xtx[r][c] -= f * xtx[col][c]
			}
			xty[r] -= f * xty[col]
		}
	}
	coef = make([]float64, cols)
	for i := 0; i < cols; i++ {
		coef[i] = xty[i] / xtx[i][i]
		if math.IsNaN(coef[i]) || math.IsInf(coef[i], 0) {
			return nil, false
		}
	}
	return coef, true
}
