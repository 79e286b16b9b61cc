package looptrans

import (
	"fmt"
	"sort"
	"testing"

	"offchip/internal/ir"
)

func nestOf(t *testing.T, src string) *ir.LoopNest {
	t.Helper()
	return ir.MustParse(src).Nests[0]
}

// iterSet enumerates the nest's iterations projected onto the given
// variables, as a sorted multiset fingerprint.
func iterSet(n *ir.LoopNest, vars []string) []string {
	pos := map[string]int{}
	for j, v := range n.Vars() {
		pos[v] = j
	}
	var out []string
	last := n.Depth() - 1
	n.Compile(nil).Iterate(func(iv []int64, lo, hi int64) bool {
		for x := lo; x < hi; x++ {
			iv[last] = x
			s := ""
			for _, v := range vars {
				j, ok := pos[v]
				if !ok {
					s += "0,"
					continue
				}
				s += fmt.Sprintf("%d,", iv[j])
			}
			out = append(out, s)
		}
		return true
	})
	sort.Strings(out)
	return out
}

func sameIterations(t *testing.T, a, b *ir.LoopNest, vars []string) {
	t.Helper()
	sa, sb := iterSet(a, vars), iterSet(b, vars)
	if len(sa) != len(sb) {
		t.Fatalf("iteration counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("iteration sets differ at %d: %s vs %s", i, sa[i], sb[i])
		}
	}
}

const rectSrc = `
program p
array A[64][64]
parfor i = 2 .. 34 {
  for j = 1 .. 17 {
    A[i][j] = A[i][j]
  }
}
`

func TestInterchangePreservesIterations(t *testing.T) {
	n := nestOf(t, rectSrc)
	sw, err := Interchange(n, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sameIterations(t, n, sw, []string{"i", "j"})
	if sw.Loops[0].Var != "j" || sw.Loops[1].Var != "i" {
		t.Errorf("order = %s, %s", sw.Loops[0].Var, sw.Loops[1].Var)
	}
	// The parallel loop follows its loop.
	if sw.ParDepth != 1 {
		t.Errorf("ParDepth = %d, want 1 (i moved inward)", sw.ParDepth)
	}
	// Original untouched.
	if n.Loops[0].Var != "i" || n.ParDepth != 0 {
		t.Error("original nest mutated")
	}
}

func TestInterchangeRejectsBoundDependence(t *testing.T) {
	n := nestOf(t, `
program p
array A[64][64]
parfor i = 0 .. 32 {
  for j = i .. 32 {
    A[i][j] = A[i][j]
  }
}
`)
	if _, err := Interchange(n, []int{1, 0}); err == nil {
		t.Fatal("triangular interchange accepted")
	}
}

func TestInterchangeRejectsDataDependence(t *testing.T) {
	// A[i][j] = A[i-1][j+1]: direction (<,>) — interchange illegal.
	n := nestOf(t, `
program p
array A[64][64]
parfor i = 1 .. 32 {
  for j = 0 .. 31 {
    A[i][j] = A[i-1][j+1]
  }
}
`)
	if _, err := Interchange(n, []int{1, 0}); err == nil {
		t.Fatal("dependence-violating interchange accepted")
	}
	// Identity stays fine.
	if _, err := Interchange(n, []int{0, 1}); err != nil {
		t.Fatalf("identity rejected: %v", err)
	}
}

func TestInterchangeValidation(t *testing.T) {
	n := nestOf(t, rectSrc)
	if _, err := Interchange(n, []int{0}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := Interchange(n, []int{0, 0}); err == nil {
		t.Error("duplicate permutation accepted")
	}
	if _, err := Interchange(n, []int{0, 5}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestMakeInnermost(t *testing.T) {
	n := nestOf(t, rectSrc)
	out, err := MakeInnermost(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Loops[out.Depth()-1].Var != "i" {
		t.Errorf("innermost = %s", out.Loops[out.Depth()-1].Var)
	}
	sameIterations(t, n, out, []string{"i", "j"})
}

func TestStripMinePreservesIterations(t *testing.T) {
	n := nestOf(t, rectSrc) // i: 2..34 (32 iterations), j: 1..17 (16)
	sm, err := StripMine(n, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Depth() != 3 {
		t.Fatalf("depth = %d", sm.Depth())
	}
	if sm.Loops[0].Var != "i_b" || sm.Loops[1].Var != "i" {
		t.Errorf("loops = %s, %s", sm.Loops[0].Var, sm.Loops[1].Var)
	}
	// The original variables' iteration set is identical.
	sameIterations(t, n, sm, []string{"i", "j"})
	// The block loop covers 32/8 = 4 blocks.
	if sm.Loops[0].Upper.Const != 4 {
		t.Errorf("blocks = %v", sm.Loops[0].Upper)
	}
	// Parallelism stays on the block loop (OpenMP-static over strips).
	if sm.ParDepth != 0 {
		t.Errorf("ParDepth = %d", sm.ParDepth)
	}
	// Strip-mining the inner loop shifts the parallel depth.
	sm2, err := StripMine(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sm2.ParDepth != 0 {
		t.Errorf("inner strip-mine moved ParDepth to %d", sm2.ParDepth)
	}
	sameIterations(t, n, sm2, []string{"i", "j"})
}

func TestStripMineErrors(t *testing.T) {
	n := nestOf(t, rectSrc)
	if _, err := StripMine(n, 0, 7); err == nil {
		t.Error("non-dividing size accepted")
	}
	if _, err := StripMine(n, 0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := StripMine(n, 5, 8); err == nil {
		t.Error("bad loop index accepted")
	}
	tri := nestOf(t, `
program p
array A[64][64]
parfor i = 0 .. 32 {
  for j = i .. 32 {
    A[i][j] = A[i][j]
  }
}
`)
	if _, err := StripMine(tri, 1, 4); err == nil {
		t.Error("variable bounds accepted")
	}
}

func TestTile(t *testing.T) {
	n := nestOf(t, `
program p
array A[64][64]
parfor i = 0 .. 32 {
  for j = 0 .. 16 {
    A[i][j] = A[i][j]
  }
}
`)
	tiled, err := Tile(n, 0, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Depth() != 4 {
		t.Fatalf("depth = %d", tiled.Depth())
	}
	order := []string{tiled.Loops[0].Var, tiled.Loops[1].Var, tiled.Loops[2].Var, tiled.Loops[3].Var}
	want := []string{"i_b", "j_b", "i", "j"}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("tile order = %v, want %v", order, want)
		}
	}
	sameIterations(t, n, tiled, []string{"i", "j"})
}

func TestTileRejectsIllegal(t *testing.T) {
	n := nestOf(t, `
program p
array A[64][64]
parfor i = 1 .. 33 {
  for j = 0 .. 16 {
    A[i][j] = A[i-1][j+1]
  }
}
`)
	if _, err := Tile(n, 0, 8, 4); err == nil {
		t.Fatal("tiling with (<,>) dependence accepted")
	}
}
