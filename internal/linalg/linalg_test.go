package linalg

import (
	"testing"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(1, -2, 3)
	w := NewVec(4, 5, -6)
	if got := v.Dot(w); got != 4-10-18 {
		t.Errorf("Dot = %d, want %d", got, 4-10-18)
	}
	if got := v.Add(w); !got.Equal(NewVec(5, 3, -3)) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); !got.Equal(NewVec(-3, -7, 9)) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(-2); !got.Equal(NewVec(-2, 4, -6)) {
		t.Errorf("Scale = %v", got)
	}
	if NewVec(0, 0).IsZero() != true {
		t.Error("IsZero(0,0) = false")
	}
	if v.IsZero() {
		t.Error("IsZero(v) = true")
	}
}

func TestVecPrimitive(t *testing.T) {
	cases := []struct{ in, want Vec }{
		{NewVec(2, 4, 6), NewVec(1, 2, 3)},
		{NewVec(-2, 4), NewVec(1, -2)},
		{NewVec(0, 0, -5), NewVec(0, 0, 1)},
		{NewVec(0, 0), NewVec(0, 0)},
		{NewVec(7), NewVec(1)},
	}
	for _, c := range cases {
		if got := c.in.Primitive(); !got.Equal(c.want) {
			t.Errorf("Primitive(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6}, {-12, 18, 6}, {12, -18, 6}, {-12, -18, 6},
		{0, 5, 5}, {5, 0, 5}, {0, 0, 0}, {1, 1, 1}, {17, 13, 1},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := GCDAll(4, 6, 10); got != 2 {
		t.Errorf("GCDAll = %d, want 2", got)
	}
	if got := GCDAll(); got != 0 {
		t.Errorf("GCDAll() = %d, want 0", got)
	}
}

func TestFloorDivMod(t *testing.T) {
	if got := FloorDiv(-7, 2); got != -4 {
		t.Errorf("FloorDiv(-7,2) = %d, want -4", got)
	}
	if got := FloorDiv(7, 2); got != 3 {
		t.Errorf("FloorDiv(7,2) = %d, want 3", got)
	}
	if got := Mod(-7, 3); got != 2 {
		t.Errorf("Mod(-7,3) = %d, want 2", got)
	}
	if got := Mod(7, 3); got != 1 {
		t.Errorf("Mod(7,3) = %d, want 1", got)
	}
}

func TestMatBasics(t *testing.T) {
	m := MatFromRows(
		[]int64{1, 2},
		[]int64{3, 4},
	)
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %d", m.At(1, 0))
	}
	n := m.Clone()
	n.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases the original")
	}
	if !m.Row(1).Equal(NewVec(3, 4)) {
		t.Errorf("Row(1) = %v", m.Row(1))
	}
	if !m.Col(1).Equal(NewVec(2, 4)) {
		t.Errorf("Col(1) = %v", m.Col(1))
	}
	if tr := m.Transpose(); !tr.Equal(MatFromRows([]int64{1, 3}, []int64{2, 4})) {
		t.Errorf("Transpose = \n%v", tr)
	}
}

func TestMatMul(t *testing.T) {
	a := MatFromRows([]int64{1, 2}, []int64{3, 4})
	b := MatFromRows([]int64{5, 6}, []int64{7, 8})
	want := MatFromRows([]int64{19, 22}, []int64{43, 50})
	if got := a.Mul(b); !got.Equal(want) {
		t.Errorf("Mul = \n%v\nwant\n%v", got, want)
	}
	if got := a.MulVec(NewVec(1, -1)); !got.Equal(NewVec(-1, -1)) {
		t.Errorf("MulVec = %v", got)
	}
	id := Identity(2)
	if got := a.Mul(id); !got.Equal(a) {
		t.Error("A·I != A")
	}
}

func TestDropCol(t *testing.T) {
	a := MatFromRows([]int64{1, 2, 3}, []int64{4, 5, 6})
	if got := a.DropCol(1); !got.Equal(MatFromRows([]int64{1, 3}, []int64{4, 6})) {
		t.Errorf("DropCol(1) = \n%v", got)
	}
	if got := a.DropCol(0); !got.Equal(MatFromRows([]int64{2, 3}, []int64{5, 6})) {
		t.Errorf("DropCol(0) = \n%v", got)
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Mat
		want int64
	}{
		{Identity(3), 1},
		{MatFromRows([]int64{0, 1}, []int64{1, 0}), -1},
		{MatFromRows([]int64{2, 0}, []int64{0, 3}), 6},
		{MatFromRows([]int64{1, 2}, []int64{2, 4}), 0},
		{MatFromRows(
			[]int64{2, -3, 1},
			[]int64{2, 0, -1},
			[]int64{1, 4, 5},
		), 49},
		{NewMat(0, 0), 1},
	}
	for _, c := range cases {
		if got := Det(c.m); got != c.want {
			t.Errorf("Det(\n%v\n) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestNullspace(t *testing.T) {
	// x + y + z = 0 has a 2-dimensional nullspace.
	a := MatFromRows([]int64{1, 1, 1})
	basis := NullspaceBasis(a)
	if basis.Cols() != 2 {
		t.Fatalf("nullspace dim = %d, want 2", basis.Cols())
	}
	for j := 0; j < basis.Cols(); j++ {
		if !a.MulVec(basis.Col(j)).IsZero() {
			t.Errorf("A·b%d = %v != 0", j, a.MulVec(basis.Col(j)))
		}
	}
	// Full-rank square matrix: trivial nullspace.
	b := MatFromRows([]int64{1, 2}, []int64{3, 5})
	if NullspaceBasis(b).Cols() != 0 {
		t.Error("full-rank matrix has nontrivial nullspace basis")
	}
	if SolveHomogeneous(b) != nil {
		t.Error("SolveHomogeneous(full-rank) != nil")
	}
}

func TestSolveHomogeneousPaperExample(t *testing.T) {
	// Paper Section 5.2: reference Z[j][i] in a loop over (i, j) with the
	// i-loop (u = 0) parallelized. Access matrix A maps (i,j) to (j,i):
	//   A = [0 1; 1 0].  B = A without column u=0 = [1; 0].  Solve Bᵀg = 0.
	bt := MatFromRows([]int64{1, 0}) // Bᵀ, 1×2
	g := SolveHomogeneous(bt)
	if g == nil {
		t.Fatal("no solution for paper example")
	}
	if !g.Equal(NewVec(0, 1)) {
		t.Errorf("g = %v, want (0, 1)", g)
	}
}

func TestColumnEchelonInvariants(t *testing.T) {
	a := MatFromRows(
		[]int64{1, 2, 3, 4},
		[]int64{2, 4, 6, 8},
		[]int64{0, 1, 1, 0},
	)
	h, c, cinv := ColumnEchelon(a)
	if !a.Mul(c).Equal(h) {
		t.Errorf("A·C != H")
	}
	if !c.Mul(cinv).Equal(Identity(4)) {
		t.Errorf("C·C⁻¹ != I:\n%v", c.Mul(cinv))
	}
	if !IsUnimodular(c) {
		t.Errorf("C not unimodular")
	}
}

func TestUnimodularCompletion(t *testing.T) {
	cases := []struct {
		g Vec
		v int
	}{
		{NewVec(1, 0), 1},
		{NewVec(0, 1), 0},
		{NewVec(2, 3), 0},
		{NewVec(3, 5, 7), 1},
		{NewVec(1, 1, 1, 1), 3},
		{NewVec(6, 10, 15), 2},
	}
	for _, c := range cases {
		u, err := UnimodularCompletion(c.g, c.v)
		if err != nil {
			t.Errorf("UnimodularCompletion(%v, %d): %v", c.g, c.v, err)
			continue
		}
		if !IsUnimodular(u) {
			t.Errorf("completion of %v not unimodular:\n%v", c.g, u)
		}
		if !u.Row(c.v).Equal(c.g) {
			t.Errorf("row %d of completion = %v, want %v", c.v, u.Row(c.v), c.g)
		}
	}
}

func TestUnimodularCompletionErrors(t *testing.T) {
	if _, err := UnimodularCompletion(NewVec(2, 4), 0); err == nil {
		t.Error("non-primitive vector accepted")
	}
	if _, err := UnimodularCompletion(NewVec(), 0); err == nil {
		t.Error("empty vector accepted")
	}
	if _, err := UnimodularCompletion(NewVec(1, 0), 5); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := UnimodularCompletion(NewVec(0, 0), 0); err == nil {
		t.Error("zero vector accepted")
	}
}

func TestMatPanics(t *testing.T) {
	a := MatFromRows([]int64{1, 2})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("At out of range", func() { a.At(5, 0) })
	mustPanic("ragged rows", func() { MatFromRows([]int64{1}, []int64{1, 2}) })
	mustPanic("mul shape", func() { a.Mul(a) })
	mustPanic("mulvec shape", func() { a.MulVec(NewVec(1)) })
	mustPanic("det non-square", func() { Det(a) })
	mustPanic("dot length", func() { NewVec(1).Dot(NewVec(1, 2)) })
}
