package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// smallMat draws a random matrix with entries in [-5, 5] and dimensions in
// [1, 5]. Small entries keep intermediate values far from overflow while
// still exercising every code path (zeros, negatives, rank deficiency).
func smallMat(r *rand.Rand) *Mat {
	rows := 1 + r.Intn(5)
	cols := 1 + r.Intn(5)
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, int64(r.Intn(11)-5))
		}
	}
	return m
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300}
}

func TestPropColumnEchelon(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := smallMat(r)
		h, c, cinv := ColumnEchelon(a)
		if !a.Mul(c).Equal(h) {
			t.Logf("A·C != H for A=\n%v", a)
			return false
		}
		if !c.Mul(cinv).Equal(Identity(a.Cols())) {
			t.Logf("C·C⁻¹ != I for A=\n%v", a)
			return false
		}
		if !IsUnimodular(c) {
			t.Logf("C not unimodular for A=\n%v", a)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropNullspace(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := smallMat(r)
		basis := NullspaceBasis(a)
		for j := 0; j < basis.Cols(); j++ {
			v := basis.Col(j)
			if v.IsZero() {
				t.Logf("zero basis vector for A=\n%v", a)
				return false
			}
			if !a.MulVec(v).IsZero() {
				t.Logf("A·b != 0 for A=\n%v b=%v", a, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropSolveHomogeneousIsPrimitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := smallMat(r)
		g := SolveHomogeneous(a)
		if g == nil {
			return true
		}
		if !a.MulVec(g).IsZero() {
			return false
		}
		return GCDAll(g...) == 1
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropUnimodularCompletion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		g := make(Vec, n)
		for i := range g {
			g[i] = int64(r.Intn(13) - 6)
		}
		if g.IsZero() {
			g[r.Intn(n)] = 1
		}
		g = g.Primitive()
		v := r.Intn(n)
		u, err := UnimodularCompletion(g, v)
		if err != nil {
			t.Logf("completion of %v failed: %v", g, err)
			return false
		}
		return IsUnimodular(u) && u.Row(v).Equal(g)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropFloorDivMod(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		bb := int64(b)
		if bb < 0 {
			bb = -bb
		}
		q, m := FloorDiv(int64(a), bb), Mod(int64(a), bb)
		return q*bb+m == int64(a) && m >= 0 && m < bb
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
