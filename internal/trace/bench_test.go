package trace

import (
	"slices"
	"testing"

	"offchip/internal/approx"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/linalg"
	"offchip/internal/workloads"
)

var benchSink int64

// BenchmarkGenerate generates one application's full optimized trace on
// the Table 1 platform, once per op: apsi, whose references are all
// affine, and fma3d, whose boot nests walk a one-iteration parallel loop
// innermost and whose gathers read through an index array. B/op and
// allocs/op show what generation allocates beyond the streams it returns;
// make bench-smoke pins allocs/op, so scratch that grows per run or per
// thread shows up.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"apsi", "fma3d"} {
		b.Run(name, func(b *testing.B) {
			app, _ := workloads.ByName(name)
			p, store := app.MustLoad()
			m := layout.Default8x8()
			cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
			if err != nil {
				b.Fatal(err)
			}
			res, err := layout.Optimize(p, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := Generate(p, res, m, store, Options{MaxAccessesPerThread: Unlimited})
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int64(len(w.Streams))
			}
		})
	}
}

// BenchmarkRefEval measures the per-access work of trace generation for
// one reference at one iteration — compiled subscripts, then
// ArrayLayout.Offset and DesiredMC — over apsi's optimized layouts.
// make bench-smoke pins it at 0 allocs/op.
func BenchmarkRefEval(b *testing.B) {
	app, _ := workloads.ByName("apsi")
	p, store := app.MustLoad()
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		b.Fatal(err)
	}
	res, err := layout.Optimize(p, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
	if err != nil {
		b.Fatal(err)
	}
	type point struct {
		ref *ir.CompiledRef
		al  *layout.ArrayLayout
		iv  []int64
	}
	var pts []point
	optimized, maxDims := 0, 0
	for _, nest := range p.Nests {
		cn := nest.Compile(store)
		iters, last := 0, nest.Depth()-1
		cn.Iterate(func(iv []int64, lo, hi int64) bool {
			for v := lo; v < hi && iters < 64; v++ {
				iv[last] = v
				for i := range cn.Refs {
					r := &cn.Refs[i]
					al := res.Layout(r.Ref.Array)
					if al.Optimized {
						optimized++
					}
					maxDims = max(maxDims, r.Ref.Array.NumDims())
					pts = append(pts, point{r, al, slices.Clone(iv)})
				}
				iters++
			}
			return iters < 64
		})
	}
	if optimized == 0 {
		b.Fatal("apsi has no optimized layouts")
	}
	coord := make(linalg.Vec, maxDims)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		pt := &pts[i%len(pts)]
		off := pt.al.Offset(pt.ref.Coord(pt.iv, coord))
		sink += off + int64(pt.al.DesiredMC(off))
	}
	benchSink = sink
}
