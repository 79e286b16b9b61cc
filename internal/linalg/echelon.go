package linalg

// ColumnEchelon reduces A to column echelon form using unimodular column
// operations. It returns H, C and Cinv with
//
//	H = A·C,   C·Cinv = I,   det(C) = ±1.
//
// H has its nonzero columns first; within them, each pivot (the first
// nonzero entry of a column, scanning rows top to bottom) is positive and
// lies strictly below the pivot of the previous column. Columns of C that
// correspond to zero columns of H form an integer basis of the nullspace
// of A.
func ColumnEchelon(a *Mat) (h, c, cinv *Mat) {
	h = a.Clone()
	n := h.Cols()
	c = Identity(n)
	cinv = Identity(n)

	swapCols := func(i, j int) {
		h.SwapCols(i, j)
		c.SwapCols(i, j)
		cinv.SwapRows(i, j)
	}
	negateCol := func(j int) {
		h.NegateCol(j)
		c.NegateCol(j)
		cinv.NegateRow(j)
	}
	addColMultiple := func(dst, src int, k int64) {
		if k == 0 {
			return
		}
		h.AddColMultiple(dst, src, k)
		c.AddColMultiple(dst, src, k)
		cinv.AddRowMultiple(src, dst, -k)
	}

	pivotCol := 0
	for row := 0; row < h.Rows() && pivotCol < n; row++ {
		// Zero out columns pivotCol+1..n-1 in this row against column
		// pivotCol via the Euclidean algorithm on column operations.
		for {
			// Find the column (>= pivotCol) with the smallest nonzero
			// absolute value in this row; move it to pivotCol.
			best := -1
			for j := pivotCol; j < n; j++ {
				v := h.At(row, j)
				if v == 0 {
					continue
				}
				if v < 0 {
					v = -v
				}
				if best == -1 || v < absInt64(h.At(row, best)) {
					best = j
				}
			}
			if best == -1 {
				// Row is entirely zero from pivotCol on: no pivot here.
				break
			}
			swapCols(pivotCol, best)
			if h.At(row, pivotCol) < 0 {
				negateCol(pivotCol)
			}
			p := h.At(row, pivotCol)
			done := true
			for j := pivotCol + 1; j < n; j++ {
				v := h.At(row, j)
				if v == 0 {
					continue
				}
				addColMultiple(j, pivotCol, -FloorDiv(v, p))
				if h.At(row, j) != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if pivotCol < n && h.At(row, pivotCol) != 0 {
			pivotCol++
		}
	}
	return h, c, cinv
}

// NullspaceBasis returns an integer basis of {x : A·x = 0} as the columns of
// the returned matrix (n×k for an n-column A of rank n−k). A zero-dimensional
// nullspace yields an n×0 matrix.
func NullspaceBasis(a *Mat) *Mat {
	h, c, _ := ColumnEchelon(a)
	n := a.Cols()
	// Count the trailing zero columns of H.
	rank := 0
	for j := 0; j < n; j++ {
		zero := true
		for i := 0; i < h.Rows(); i++ {
			if h.At(i, j) != 0 {
				zero = false
				break
			}
		}
		if !zero {
			rank++
		}
	}
	basis := NewMat(n, n-rank)
	for j := rank; j < n; j++ {
		for i := 0; i < n; i++ {
			basis.Set(i, j-rank, c.At(i, j))
		}
	}
	return basis
}

// SolveHomogeneous returns one primitive nontrivial integer solution of
// A·x = 0, or nil if only the trivial solution exists. This implements the
// "Integer Gaussian Elimination" step of Algorithm 1 in the paper, used to
// solve Bᵀ·gᵥᵀ = 0 for the data-partitioning row vector gᵥ.
func SolveHomogeneous(a *Mat) Vec {
	basis := NullspaceBasis(a)
	if basis.Cols() == 0 {
		return nil
	}
	return basis.Col(0).Primitive()
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
