// Package linalg provides exact integer linear algebra for the layout
// transformation pass: integer vectors and matrices, fraction-free Gaussian
// elimination, column echelon form, integer nullspace bases, and unimodular
// completion of a primitive row vector to a full unimodular matrix.
//
// All arithmetic is on int64. The matrices manipulated by the compiler pass
// are access matrices of affine loop nests — small (rarely above 6×6) with
// small entries — so int64 is ample; operations that could overflow in
// pathological inputs document that assumption rather than checking it.
package linalg

import (
	"fmt"
	"strings"
)

// Vec is an integer column vector.
type Vec []int64

// NewVec returns a vector holding the given entries.
func NewVec(entries ...int64) Vec {
	v := make(Vec, len(entries))
	copy(v, entries)
	return v
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// IsZero reports whether every entry of v is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ.
func (v Vec) Dot(w Vec) int64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot of vectors with lengths %d and %d", len(v), len(w)))
	}
	var s int64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: add of vectors with lengths %d and %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: sub of vectors with lengths %d and %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns k·v as a new vector.
func (v Vec) Scale(k int64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = k * v[i]
	}
	return out
}

// Equal reports whether v and w have the same length and entries.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Primitive returns v divided by the GCD of its entries, with sign normalized
// so that the first nonzero entry is positive. The zero vector is returned
// unchanged.
func (v Vec) Primitive() Vec {
	g := GCDAll(v...)
	if g == 0 {
		return v.Clone()
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] / g
	}
	for _, x := range out {
		if x == 0 {
			continue
		}
		if x < 0 {
			for i := range out {
				out[i] = -out[i]
			}
		}
		break
	}
	return out
}

func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Mat is a dense integer matrix with row-major storage.
type Mat struct {
	rows, cols int
	a          []int64
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &Mat{rows: rows, cols: cols, a: make([]int64, rows*cols)}
}

// MatFromRows builds a matrix from row slices. All rows must have equal
// length; an empty row set yields a 0×0 matrix.
func MatFromRows(rows ...[]int64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	cols := len(rows[0])
	m := NewMat(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.a[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m *Mat) At(i, j int) int64 {
	m.check(i, j)
	return m.a[i*m.cols+j]
}

// Set assigns the entry at row i, column j.
func (m *Mat) Set(i, j int, v int64) {
	m.check(i, j)
	m.a[i*m.cols+j] = v
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns an independent copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.rows, m.cols)
	copy(c.a, m.a)
	return c
}

// Row returns a copy of row i as a vector.
func (m *Mat) Row(i int) Vec {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return NewVec(m.a[i*m.cols : (i+1)*m.cols]...)
}

// Col returns a copy of column j as a vector.
func (m *Mat) Col(j int) Vec {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	v := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		v[i] = m.a[i*m.cols+j]
	}
	return v
}

// SetRow overwrites row i with v. It panics on length mismatch.
func (m *Mat) SetRow(i int, v Vec) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: set row of length %d in %dx%d matrix", len(v), m.rows, m.cols))
	}
	copy(m.a[i*m.cols:(i+1)*m.cols], v)
}

// Transpose returns mᵀ as a new matrix.
func (m *Mat) Transpose() *Mat {
	t := NewMat(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·n. It panics if the inner dimensions disagree.
func (m *Mat) Mul(n *Mat) *Mat {
	if m.cols != n.rows {
		panic(fmt.Sprintf("linalg: mul of %dx%d by %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := NewMat(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.a[i*m.cols+k]
			if mik == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				out.a[i*out.cols+j] += mik * n.a[k*n.cols+j]
			}
		}
	}
	return out
}

// MulVec returns m·v. It panics if the dimensions disagree.
func (m *Mat) MulVec(v Vec) Vec {
	if m.cols != len(v) {
		panic(fmt.Sprintf("linalg: mulvec of %dx%d by length-%d vector", m.rows, m.cols, len(v)))
	}
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		var s int64
		for j := 0; j < m.cols; j++ {
			s += m.a[i*m.cols+j] * v[j]
		}
		out[i] = s
	}
	return out
}

// Equal reports whether m and n have the same shape and entries.
func (m *Mat) Equal(n *Mat) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, x := range m.a {
		if x != n.a[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (m *Mat) IsZero() bool {
	for _, x := range m.a {
		if x != 0 {
			return false
		}
	}
	return true
}

// DropCol returns a copy of m with column j removed. This builds the
// submatrix B of an access matrix A with the iteration-partition column
// removed (Section 5.2 of the paper).
func (m *Mat) DropCol(j int) *Mat {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: drop col %d of %dx%d matrix", j, m.rows, m.cols))
	}
	out := NewMat(m.rows, m.cols-1)
	for i := 0; i < m.rows; i++ {
		jj := 0
		for c := 0; c < m.cols; c++ {
			if c == j {
				continue
			}
			out.Set(i, jj, m.At(i, c))
			jj++
		}
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Mat) SwapRows(i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.cols; c++ {
		m.a[i*m.cols+c], m.a[j*m.cols+c] = m.a[j*m.cols+c], m.a[i*m.cols+c]
	}
}

// SwapCols exchanges columns i and j in place.
func (m *Mat) SwapCols(i, j int) {
	if i == j {
		return
	}
	for r := 0; r < m.rows; r++ {
		m.a[r*m.cols+i], m.a[r*m.cols+j] = m.a[r*m.cols+j], m.a[r*m.cols+i]
	}
}

// AddColMultiple adds k times column src to column dst in place.
func (m *Mat) AddColMultiple(dst, src int, k int64) {
	for r := 0; r < m.rows; r++ {
		m.a[r*m.cols+dst] += k * m.a[r*m.cols+src]
	}
}

// AddRowMultiple adds k times row src to row dst in place.
func (m *Mat) AddRowMultiple(dst, src int, k int64) {
	for c := 0; c < m.cols; c++ {
		m.a[dst*m.cols+c] += k * m.a[src*m.cols+c]
	}
}

// NegateCol negates column j in place.
func (m *Mat) NegateCol(j int) {
	for r := 0; r < m.rows; r++ {
		m.a[r*m.cols+j] = -m.a[r*m.cols+j]
	}
}

// NegateRow negates row i in place.
func (m *Mat) NegateRow(i int) {
	for c := 0; c < m.cols; c++ {
		m.a[i*m.cols+c] = -m.a[i*m.cols+c]
	}
}

func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte(']')
		if i != m.rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
