package layout

import (
	"strings"
	"testing"

	"offchip/internal/ir"
	"offchip/internal/linalg"
)

// rewriteEquiv checks the central rewrite property on every iteration of
// the program: the symbolic Figure 9(c) form must address exactly the byte
// the table-driven runtime remap addresses — the data transformation is a
// renaming, and its two representations must agree.
func rewriteEquiv(t *testing.T, m Machine, cm *ClusterMapping, src string) {
	t.Helper()
	p := ir.MustParse(src)
	res, err := Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ni, nest := range p.Nests {
		cn := nest.Compile(nil)
		vars := nest.Vars()
		for ri := range cn.Refs {
			r := cn.Refs[ri].Ref
			al := res.Layout(r.Array)
			cr, err := al.RewriteRef(r)
			if err != nil {
				t.Fatalf("nest %d ref %d (%s): %v", ni, ri, r, err)
			}
			checked := 0
			env := map[string]int64{}
			last := len(vars) - 1
			cn.Iterate(func(iv []int64, lo, hi int64) bool {
				for v := lo; v < hi; v++ {
					iv[last] = v
					for j, v := range vars {
						env[v] = iv[j]
					}
					want := al.Offset(cn.Refs[ri].Coord(iv, make(linalg.Vec, len(r.Subs))))
					got := cr.Offset(env, r.Array.ElemSize)
					if got != want {
						t.Fatalf("ref %s at %v: rewrite %d != remap %d\nform: %s",
							r, env, got, want, cr)
					}
					checked++
					if checked == 5000 { // bounded but dense coverage
						return false
					}
				}
				return true
			})
			if checked == 0 {
				t.Fatalf("ref %s never evaluated", r)
			}
		}
	}
}

const evenRowSrc = `
program even
array A[128][128]
parfor i = 0 .. 128 {
  for j = 0 .. 128 {
    A[i][j] = A[i][j]
  }
}
`

const evenTransposedSrc = `
program event
array Z[32][2048]
parfor i = 1 .. 2047 {
  for j = 1 .. 31 {
    Z[j][i] = Z[j-1][i] + Z[j+1][i]
  }
}
`

func TestRewriteEquivalencePrivate(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	rewriteEquiv(t, m, cm, evenRowSrc)
	rewriteEquiv(t, m, cm, evenTransposedSrc)
}

func TestRewriteEquivalencePrivateM2(t *testing.T) {
	m := Default8x8()
	cm, err := MappingM2(m, PlacementCorners(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	rewriteEquiv(t, m, cm, evenRowSrc)
}

func TestRewriteEquivalenceShared(t *testing.T) {
	m := Default8x8()
	m.L2 = SharedL2
	cm := mustM1(t, m)
	rewriteEquiv(t, m, cm, evenRowSrc)
	rewriteEquiv(t, m, cm, evenTransposedSrc)
}

func TestRewriteEquivalencePageInterleave(t *testing.T) {
	m := Default8x8()
	m.Interleave = PageInterleave
	cm := mustM1(t, m)
	rewriteEquiv(t, m, cm, evenRowSrc)
}

func TestRewriteUnevenPartitionPadded(t *testing.T) {
	// 100 rows over 64 threads: b = 2 with a padded tail (Section 5.3's
	// intra-array alignment); the closed form must still hold on every
	// real element.
	m := Default8x8()
	cm := mustM1(t, m)
	rewriteEquiv(t, m, cm, `
program uneven
array A[100][64]
parfor i = 0 .. 100 {
  for j = 0 .. 64 {
    A[i][j] = A[i][j]
  }
}
`)
}

func TestRewriteNotClosedForm(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	p := ir.MustParse(evenRowSrc)
	r := p.Nests[0].Body[0].Write
	// Identity layout: no closed form.
	id := IdentityLayout(r.Array, "test")
	if _, err := id.RewriteRef(r); err == nil {
		t.Error("identity layout rewrote")
	}
	// Two threads per core: thread blocks fold onto cores, which the
	// closed form does not model.
	res, err := Optimize(p, m, cm, &Options{Threads: 2 * m.Cores()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Layout(r.Array).RewriteRef(r); err == nil {
		t.Error("multi-threads-per-core layout claimed a closed form")
	}
	// Indexed references: no closed form either.
	pi := ir.MustParse(`
program pidx
array A[128]
array idx[128] elem 4
parfor i = 0 .. 128 {
  A[idx[i]] = A[i]
}
`)
	resI, err := Optimize(pi, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := pi.Nests[0].Body[0].Write
	if _, err := resI.Layout(w.Array).RewriteRef(w); err == nil {
		t.Error("indexed reference rewrote")
	}
}

func TestRewriteRendering(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	p := ir.MustParse(evenTransposedSrc)
	res, err := Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Nests[0].Body[0].Write
	cr, err := res.Layout(r.Array).RewriteRef(r)
	if err != nil {
		t.Fatal(err)
	}
	form := cr.String()
	if !strings.Contains(form, "''[") || !strings.Contains(form, "/") || !strings.Contains(form, "%") {
		t.Errorf("rendered form lacks strip-mining: %s", form)
	}
	text := RewriteProgram(p, res)
	if !strings.Contains(text, "Z''") || !strings.Contains(text, "nest 0") {
		t.Errorf("program rendering:\n%s", text)
	}
}

func TestRewriteSharedUsesHomeTable(t *testing.T) {
	m := Default8x8()
	m.L2 = SharedL2
	cm := mustM1(t, m)
	p := ir.MustParse(evenRowSrc)
	res, err := Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Nests[0].Body[0].Write
	cr, err := res.Layout(r.Array).RewriteRef(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cr.String(), "H[") {
		t.Errorf("shared rewrite lacks home-bank table: %s", cr)
	}
}

func TestExprEvalOps(t *testing.T) {
	env := map[string]int64{"i": 7}
	e := add(mulc(div(affine(ir.VarExpr("i")), 2), 10), mod(affine(ir.VarExpr("i")), 4))
	// i=7: (7/2)*10 + 7%4 = 30 + 3 = 33.
	if got := e.Eval(env); got != 33 {
		t.Errorf("Eval = %d", got)
	}
	tab := table(affine(ir.VarExpr("i")), []int64{5, 6, 7})
	if got := tab.Eval(map[string]int64{"i": 99}); got != 7 {
		t.Errorf("table clamp = %d", got)
	}
	if got := tab.Eval(map[string]int64{"i": -1}); got != 5 {
		t.Errorf("table clamp low = %d", got)
	}
	if floorDiv(-7, 2) != -4 || floorMod(-7, 4) != 1 {
		t.Error("floor arithmetic")
	}
	if !strings.Contains(e.String(), "/2") {
		t.Errorf("String = %s", e)
	}
}
