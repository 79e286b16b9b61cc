package linalg

import "fmt"

// Det returns the determinant of a square matrix using the Bareiss
// fraction-free elimination algorithm (exact over the integers).
func Det(m *Mat) int64 {
	if m.Rows() != m.Cols() {
		panic(fmt.Sprintf("linalg: determinant of non-square %dx%d matrix", m.Rows(), m.Cols()))
	}
	n := m.Rows()
	if n == 0 {
		return 1
	}
	a := m.Clone()
	sign := int64(1)
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if a.At(k, k) == 0 {
			// Find a row below with a nonzero pivot.
			swapped := false
			for i := k + 1; i < n; i++ {
				if a.At(i, k) != 0 {
					a.SwapRows(i, k)
					sign = -sign
					swapped = true
					break
				}
			}
			if !swapped {
				return 0
			}
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				num := a.At(i, j)*a.At(k, k) - a.At(i, k)*a.At(k, j)
				a.Set(i, j, num/prev)
			}
			a.Set(i, k, 0)
		}
		prev = a.At(k, k)
	}
	return sign * a.At(n-1, n-1)
}

// IsUnimodular reports whether m is square with determinant ±1.
func IsUnimodular(m *Mat) bool {
	if m.Rows() != m.Cols() {
		return false
	}
	d := Det(m)
	return d == 1 || d == -1
}

// UnimodularCompletion extends a primitive row vector g to a full n×n
// unimodular matrix U whose v-th row (0-based) is g. This realizes the
// Unimodular_Layout_Transformation step of Algorithm 1: the transformation
// matrix U is completely determined by its data-partitioning row gᵥ, and the
// remaining rows are chosen so that det(U) = ±1.
//
// It returns an error if g is not primitive (the GCD of its entries must
// be 1) or if v is out of range.
func UnimodularCompletion(g Vec, v int) (*Mat, error) {
	n := len(g)
	if n == 0 {
		return nil, fmt.Errorf("linalg: cannot complete empty vector")
	}
	if v < 0 || v >= n {
		return nil, fmt.Errorf("linalg: completion row %d out of range [0,%d)", v, n)
	}
	if GCDAll(g...) != 1 {
		return nil, fmt.Errorf("linalg: vector %v is not primitive (gcd %d)", g, GCDAll(g...))
	}

	// Column-reduce the 1×n matrix [g] to (1, 0, …, 0) while tracking the
	// inverse of the accumulated column transformation. With g·C = e₀ᵀ we
	// get e₀ᵀ·C⁻¹ = g, i.e. the first row of C⁻¹ is exactly g, and C⁻¹ is
	// unimodular by construction.
	row := MatFromRows(append([]int64(nil), g...))
	h, _, cinv := ColumnEchelon(row)
	if h.At(0, 0) != 1 {
		// Cannot happen for a primitive vector; defensive check.
		return nil, fmt.Errorf("linalg: completion failed, reduced pivot %d", h.At(0, 0))
	}

	// Rotate rows so that row 0 (= g) lands at row v, preserving |det| = 1.
	u := NewMat(n, n)
	for i := 0; i < n; i++ {
		u.SetRow((i+v)%n, cinv.Row(i))
	}
	if !IsUnimodular(u) {
		return nil, fmt.Errorf("linalg: internal error: completion is not unimodular:\n%v", u)
	}
	return u, nil
}
