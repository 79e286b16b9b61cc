package trace

import (
	"testing"

	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
)

const src = `
program t
array A[64][64]
array B[64][64]
parfor i = 0 .. 64 {
  for j = 0 .. 64 {
    A[i][j] = A[i][j] + B[i][j]
  }
}
`

func machine() layout.Machine {
	return layout.Machine{
		MeshX: 4, MeshY: 4, NumMCs: 4,
		LineBytes: 64, PageBytes: 512,
		L2: layout.PrivateL2, Interleave: layout.LineInterleave,
	}
}

func optimize(t *testing.T, m layout.Machine, src string) (*ir.Program, *layout.Result) {
	t.Helper()
	p := ir.MustParse(src)
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	res, err := layout.Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestGenerateBasics(t *testing.T) {
	m := machine()
	p, res := optimize(t, m, src)
	w, err := Generate(p, res, m, nil, Options{MaxAccessesPerThread: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Streams) != 16 {
		t.Fatalf("streams = %d, want 16 (one per core)", len(w.Streams))
	}
	for i, s := range w.Streams {
		if s.Core != i {
			t.Errorf("stream %d on core %d", i, s.Core)
		}
		if len(s.Accesses) == 0 {
			t.Errorf("stream %d empty", i)
		}
		if len(s.Accesses) > 1500 {
			t.Errorf("stream %d has %d accesses, cap 1500", i, len(s.Accesses))
		}
	}
}

func TestGenerateCapsAndSamples(t *testing.T) {
	m := machine()
	p, res := optimize(t, m, src)
	w, err := Generate(p, res, m, nil, Options{MaxAccessesPerThread: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Streams {
		if len(s.Accesses) > 60 {
			t.Errorf("stream %d: %d accesses", i, len(s.Accesses))
		}
	}
	// Sampling must still cover distant rows of the thread's chunk: the
	// last thread's accesses should touch high addresses.
	last := w.Streams[15]
	var maxAddr int64
	for _, a := range last.Accesses {
		if a.VAddr > maxAddr {
			maxAddr = a.VAddr
		}
	}
	if maxAddr == 0 {
		t.Error("sampled trace collapsed to address 0")
	}
}

const multiNestSrc = `
program multi
array A[32][32]
array B[32][32]
array C[32][32]

parfor i = 0 .. 32 {
  for j = 0 .. 32 {
    A[i][j] = B[i][j] + C[i][j]
  }
}

parfor i = 0 .. 32 {
  for j = 0 .. 32 {
    B[i][j] = A[i][j]
  }
}

parfor i = 0 .. 32 {
  for j = 0 .. 32 {
    C[i][j] = C[i][j] + A[i][j]
  }
}
`

func TestPhaseMarkerPerNestTinyBudget(t *testing.T) {
	// Even when a thread's access budget runs out early, every nest must
	// still get a phase marker, so phase indices agree across streams whose
	// budgets ran out at different points — and the cap is exact: a stream
	// must never exceed MaxAccessesPerThread, not even by refsPerIter−1.
	m := machine()
	p, res := optimize(t, m, multiNestSrc)
	for _, cap := range []int{1, 2, 4, 7, 10} {
		w, err := Generate(p, res, m, nil, Options{MaxAccessesPerThread: cap})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range w.Streams {
			if len(s.Phases) != len(p.Nests) {
				t.Fatalf("cap %d: stream %d has %d phase markers, want %d (one per nest)",
					cap, i, len(s.Phases), len(p.Nests))
			}
			if len(s.Accesses) > cap {
				t.Errorf("cap %d: stream %d has %d accesses", cap, i, len(s.Accesses))
			}
			prev := 0
			for n, ph := range s.Phases {
				if ph < prev || ph > len(s.Accesses) {
					t.Errorf("cap %d: stream %d phase %d marker %d out of order (prev %d, accesses %d)",
						cap, i, n, ph, prev, len(s.Accesses))
				}
				prev = ph
			}
		}
	}
}

func TestCapExactWithMultipleRefsPerIter(t *testing.T) {
	// Three refs per iteration and a cap that is not a multiple of three:
	// the clamp must hit mid-iteration instead of overshooting.
	m := machine()
	p, res := optimize(t, m, multiNestSrc)
	w, err := Generate(p, res, m, nil, Options{MaxAccessesPerThread: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Streams {
		if len(s.Accesses) > 100 {
			t.Errorf("stream %d has %d accesses, cap 100", i, len(s.Accesses))
		}
	}
}

func TestThreadsOptionAndBinding(t *testing.T) {
	m := machine()
	p, res := optimize(t, m, src)
	w, err := Generate(p, res, m, nil, Options{Threads: 32, MaxAccessesPerThread: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Streams) != 32 {
		t.Fatalf("streams = %d", len(w.Streams))
	}
	// Threads bind round-robin: thread 16 shares core 0.
	if w.Streams[16].Core != 0 {
		t.Errorf("thread 16 on core %d", w.Streams[16].Core)
	}
}

func TestPlaceArraysAligned(t *testing.T) {
	m := machine()
	p, res := optimize(t, m, src)
	bases, err := PlaceArrays(p, res, m)
	if err != nil {
		t.Fatal(err)
	}
	align := m.PageBytes * int64(m.NumMCs)
	if cl := m.LineBytes * int64(m.Cores()); cl > align {
		align = cl
	}
	seen := map[int64]bool{}
	for arr, b := range bases {
		if b%align != 0 {
			t.Errorf("array %s base %d misaligned", arr.Name, b)
		}
		if seen[b] {
			t.Errorf("arrays share base %d", b)
		}
		seen[b] = true
	}
}

func TestOptimizedAndBaselineDiffer(t *testing.T) {
	m := machine()
	p := ir.MustParse(`
program transposed
array Z[64][64]
parfor i = 1 .. 63 {
  for j = 1 .. 63 {
    Z[j][i] = Z[j-1][i] + Z[j+1][i]
  }
}
`)
	cm, err := layout.MappingM1(m, layout.PlacementCorners(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := layout.Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: identity layouts.
	baseRes := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	opt, err := Generate(p, res, m, nil, Options{MaxAccessesPerThread: 100})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Generate(p, baseRes, m, nil, Options{MaxAccessesPerThread: 100})
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range opt.Streams {
		for j := range opt.Streams[i].Accesses {
			if opt.Streams[i].Accesses[j].VAddr != base.Streams[i].Accesses[j].VAddr {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("optimized and baseline traces identical for a transposed kernel")
	}
}

func TestMerge(t *testing.T) {
	a := Generate2(t)
	b := Generate2(t)
	m := Merge("mix", a, b)
	if len(m.Streams) != len(a.Streams)+len(b.Streams) {
		t.Errorf("merged %d streams", len(m.Streams))
	}
	if m.Name != "mix" {
		t.Errorf("name = %q", m.Name)
	}
	// Each input keeps its own address space, and the inputs (which may
	// be shared trace-cache entries) are left as they were.
	for i, st := range m.Streams {
		if want := i / len(a.Streams); st.AppID != want {
			t.Fatalf("merged stream %d has AppID %d, want %d", i, st.AppID, want)
		}
	}
	for _, st := range b.Streams {
		if st.AppID != 0 {
			t.Fatalf("Merge restamped an input stream's AppID to %d", st.AppID)
		}
	}
}

// Generate2 builds a tiny workload for Merge tests.
func Generate2(t *testing.T) (w *sim.Workload) {
	t.Helper()
	m := machine()
	p, res := optimize(t, m, src)
	ww, err := Generate(p, res, m, nil, Options{MaxAccessesPerThread: 10})
	if err != nil {
		t.Fatal(err)
	}
	return ww
}
