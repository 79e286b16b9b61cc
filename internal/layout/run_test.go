package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"offchip/internal/ir"
	"offchip/internal/linalg"
)

// runSrcs are reference shapes whose layouts exercise U = I, transposed
// and skewed transformations over one, two and three dimensions.
var runSrcs = []string{
	"array A[%[1]d]\nparfor i = 0 .. %[1]d {\n  A[i] = A[i]\n}",
	"array A[%[1]d][%[2]d]\nparfor i = 0 .. %[1]d {\n  for j = 0 .. %[2]d {\n    A[i][j] = A[i][j]\n  }\n}",
	"array A[%[2]d][%[1]d]\nparfor i = 0 .. %[1]d {\n  for j = 0 .. %[2]d {\n    A[j][i] = A[j][i]\n  }\n}",
	"array A[%[1]d][%[2]d]\nparfor i = 0 .. %[1]d {\n  for j = 0 .. %[2]d {\n    A[i][i+j] = A[i][i+j]\n  }\n}",
	"array A[%[1]d][%[2]d][%[3]d]\nparfor i = 0 .. %[1]d {\n  for j = 0 .. %[2]d {\n    for k = 0 .. %[3]d {\n      A[i][j][k] = A[i][k][j]\n    }\n  }\n}",
}

// TestRunMatchesOffset holds the run form to the per-access one: over
// random machines, mappings, array shapes and layouts (identity and
// customized), a Run started anywhere — inside the array, outside it, or
// at its edge — with any step must return exactly Offset and DesiredMC of
// the coordinate it reaches at every iteration, and a Run reused across
// runs must not carry state from one to the next.
func TestRunMatchesOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stepped, outside := 0, 0
	for trial := 0; trial < 300; trial++ {
		m := Machine{
			MeshX: 4 << rng.Intn(2), MeshY: 4, NumMCs: 4,
			LineBytes: 64, InterleaveBytes: 256, PageBytes: 4096,
			L2: CacheKind(rng.Intn(2)), Interleave: LineInterleave,
		}
		if m.L2 == PrivateL2 && rng.Intn(2) == 0 {
			m.Interleave = PageInterleave
		}
		mapping := MappingM1
		if m.L2 == PrivateL2 && rng.Intn(2) == 0 {
			mapping = MappingM2
		}
		cm, err := mapping(m, PlacementCorners(m.MeshX, m.MeshY))
		if err != nil {
			t.Fatal(err)
		}
		src := fmt.Sprintf("program run\n"+runSrcs[rng.Intn(len(runSrcs))],
			3+rng.Intn(300), 3+rng.Intn(60), 3+rng.Intn(12))
		p := ir.MustParse(src)
		p.Arrays[0].ElemSize = []int64{4, 8, 16}[rng.Intn(3)]
		threads := []int{1, 7, m.Cores(), 2 * m.Cores()}[rng.Intn(4)]
		res, err := Optimize(p, m, cm, &Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		arr := p.Arrays[0]
		for _, al := range []*ArrayLayout{IdentityLayout(arr, "identity"), res.Layout(arr)} {
			n := arr.NumDims()
			step := make(linalg.Vec, n)
			for d := range step {
				if rng.Intn(2) == 0 {
					step[d] = int64(rng.Intn(7) - 3)
				}
			}
			run := al.NewRun(step)
			for start := 0; start < 4; start++ {
				coord := make(linalg.Vec, n)
				for d := range coord {
					ext := arr.Dims[d]
					coord[d] = rng.Int63n(ext+8) - 4
				}
				iters := 1 + rng.Int63n(400)
				run.Start(coord, iters)
				at := coord.Clone()
				for s := int64(0); s < iters; s++ {
					gotOff, gotMC := run.Next()
					wantOff := al.Offset(at)
					wantMC := al.DesiredMC(wantOff)
					if gotOff != wantOff || gotMC != wantMC {
						t.Fatalf("trial %d (%s, %v, %d threads, optimized=%v): start %v step %v, iteration %d at %v: run (%d, mc %d), Offset (%d, mc %d)",
							trial, m.L2, m.Interleave, threads, al.Optimized, coord, step, s, at, gotOff, gotMC, wantOff, wantMC)
					}
					if run.stretch > 0 && al.Optimized {
						stepped++
					}
					if !inBox(arr, at) {
						outside++
					}
					for d := range at {
						at[d] += step[d]
					}
				}
			}
		}
	}
	if stepped == 0 || outside == 0 {
		t.Fatalf("coverage: %d stepped iterations of customized layouts, %d outside the array", stepped, outside)
	}
	t.Logf("%d stepped iterations of customized layouts, %d outside the array", stepped, outside)
}

func inBox(arr *ir.Array, c linalg.Vec) bool {
	for d, x := range c {
		if x < 0 || x >= arr.Dims[d] {
			return false
		}
	}
	return true
}
