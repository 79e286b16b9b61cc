package ir

import (
	"strings"
	"testing"

	"offchip/internal/linalg"
)

const stencilSrc = `
program stencil
param N = 8
array Z[8][8]

parfor i = 2 .. N-1 {
  for j = 2 .. N-1 {
    Z[j][i] = Z[j-1][i] + Z[j][i] + Z[j+1][i]
  }
}
`

func TestParseStencil(t *testing.T) {
	p, err := Parse(stencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "stencil" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Arrays) != 1 || p.Arrays[0].Name != "Z" {
		t.Fatalf("arrays = %v", p.Arrays)
	}
	z := p.Arrays[0]
	if z.Dims[0] != 8 || z.Dims[1] != 8 {
		t.Errorf("dims = %v", z.Dims)
	}
	if z.ElemSize != DefaultElemSize {
		t.Errorf("elem size = %d", z.ElemSize)
	}
	if len(p.Nests) != 1 {
		t.Fatalf("nests = %d", len(p.Nests))
	}
	n := p.Nests[0]
	if n.Depth() != 2 || n.ParDepth != 0 {
		t.Errorf("depth %d par %d", n.Depth(), n.ParDepth)
	}
	if len(n.Body) != 1 {
		t.Fatalf("body = %d stmts", len(n.Body))
	}
	s := n.Body[0]
	if s.Write.String() != "Z[j][i]" {
		t.Errorf("write = %s", s.Write)
	}
	if len(s.Reads) != 3 {
		t.Errorf("reads = %d", len(s.Reads))
	}
}

func TestAccessMatrixPaperExample(t *testing.T) {
	// Paper Section 5.1: reference A[i1][2*i2+1] in a 2-level nest has
	// A = [1 0; 0 2], o = (0, 1), and at i = (1, 2), a = (1, 5).
	p := MustParse(`
program ex
array A[16][16]
parfor i1 = 0 .. 4 {
  for i2 = 0 .. 4 {
    A[i1][2*i2+1] = A[i1][2*i2+1]
  }
}
`)
	ref := p.Nests[0].Body[0].Write
	a, o := ref.AccessMatrix(p.Nests[0].Vars())
	wantA := linalg.MatFromRows([]int64{1, 0}, []int64{0, 2})
	if !a.Equal(wantA) {
		t.Errorf("A = \n%v, want \n%v", a, wantA)
	}
	if !o.Equal(linalg.NewVec(0, 1)) {
		t.Errorf("o = %v", o)
	}
	got := a.MulVec(linalg.NewVec(1, 2)).Add(o)
	if !got.Equal(linalg.NewVec(1, 5)) {
		t.Errorf("A·i + o = %v, want (1, 5)", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSubstr string
	}{
		{"no program", `array A[4]`, "must start"},
		{"undeclared array", `program p
parfor i = 0 .. 4 { B[i] = B[i] }`, "undeclared"},
		{"no parfor", `program p
array A[4]
for i = 0 .. 4 { A[i] = A[i] }`, "no parfor"},
		{"two parfors", `program p
array A[4][4]
parfor i = 0 .. 4 { parfor j = 0 .. 4 { A[i][j] = A[i][j] } }`, "more than one parfor"},
		{"imperfect nest", `program p
array A[4][4]
parfor i = 0 .. 4 { A[i][0] = A[i][0] for j = 0 .. 4 { A[i][j] = A[i][j] } }`, "imperfect"},
		{"nonlinear", `program p
array A[4]
parfor i = 0 .. 4 { A[i*i] = A[i] }`, "nonlinear"},
		{"bad char", `program p @`, "unexpected character"},
		{"subscript arity", `program p
array A[4][4]
parfor i = 0 .. 4 { A[i] = A[i] }`, "subscripted with 1 of 2"},
		{"empty body", `program p
array A[4]
parfor i = 0 .. 4 { }`, "empty"},
		{"nonconst dim", `program p
array A[i]`, "must be constant"},
		{"nonconst param", `program p
param N = i`, "must be constant"},
		{"redeclared", `program p
array A[4]
array A[4]`, "redeclared"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSubstr) {
				t.Errorf("error %q does not contain %q", err, c.wantSubstr)
			}
		})
	}
}

func TestParamSubstitution(t *testing.T) {
	p := MustParse(`
program p
param N = 16
param HALF = 8
array A[16]
parfor i = 0 .. N { A[i] = A[i] }
parfor k = 0 .. HALF { A[k] = A[k+HALF] }
`)
	if got := p.Nests[0].Loops[0].Upper; !got.IsConst() || got.Const != 16 {
		t.Errorf("N substituted to %v", got)
	}
	if got := p.Nests[1].Loops[0].Upper; !got.IsConst() || got.Const != 8 {
		t.Errorf("HALF substituted to %v", got)
	}
	r := p.Nests[1].Body[0].Reads[0]
	if r.Subs[0].Const != 8 || r.Subs[0].Coeff("k") != 1 {
		t.Errorf("k+HALF parsed as %v", r.Subs[0])
	}
}

func TestParamTimesVar(t *testing.T) {
	p := MustParse(`
program p
param S = 4
array A[64]
parfor i = 0 .. 16 { A[S*i] = A[i*S] }
`)
	w := p.Nests[0].Body[0].Write
	if w.Subs[0].Coeff("i") != 4 {
		t.Errorf("S*i coeff = %d", w.Subs[0].Coeff("i"))
	}
	r := p.Nests[0].Body[0].Reads[0]
	if r.Subs[0].Coeff("i") != 4 {
		t.Errorf("i*S coeff = %d", r.Subs[0].Coeff("i"))
	}
}

func TestParseIndexedRef(t *testing.T) {
	p := MustParse(`
program spmv
array x[16]
array col[32] elem 4
array val[32]
array y[16]

parfor i = 0 .. 16 {
  for k = 2*i .. 2*i+2 {
    y[i] = y[i] + val[k] * x[col[k]]
  }
}
`)
	stmt := p.Nests[0].Body[0]
	var indexed *Ref
	for _, r := range stmt.Reads {
		if r.Indexed() {
			indexed = r
		}
	}
	if indexed == nil {
		t.Fatal("no indexed reference parsed")
	}
	if indexed.Array.Name != "x" {
		t.Errorf("indexed base = %s", indexed.Array.Name)
	}
	is := indexed.IndexSubs[0]
	if is == nil || is.IndexArray.Name != "col" {
		t.Fatalf("index sub = %+v", is)
	}
	if got := indexed.String(); got != "x[col[k]]" {
		t.Errorf("String = %q", got)
	}

	// The compiled reference resolves through col's stored contents.
	store := NewDataStore()
	colVals := make([]int64, 32)
	for i := range colVals {
		colVals[i] = int64((i * 7) % 16)
	}
	store.SetContents(p.Array("col"), colVals)
	cr := p.Nests[0].Compile(store).CompileRef(indexed)
	coord := cr.Coord([]int64{3, 6}, make(linalg.Vec, 1)) // i=3, k=6
	if coord[0] != colVals[6] {
		t.Errorf("coord = %v, want %d", coord, colVals[6])
	}
}

func TestLinExprAlgebra(t *testing.T) {
	e := Term(2, "i", 1).Plus(Term(-2, "i", 0)).Plus(VarExpr("j"))
	if e.Coeff("i") != 0 {
		t.Errorf("cancelled coeff retained: %v", e)
	}
	if _, ok := e.Coeffs["i"]; ok {
		t.Error("zero coefficient not removed from map")
	}
	if e.Coeff("j") != 1 || e.Const != 1 {
		t.Errorf("e = %v", e)
	}
	if got := Term(3, "i", -2).String(); got != "3*i-2" {
		t.Errorf("String = %q", got)
	}
	if got := Term(-1, "i", 0).String(); got != "-i" {
		t.Errorf("String = %q", got)
	}
	if got := ConstExpr(0).String(); got != "0" {
		t.Errorf("String = %q", got)
	}
	if got := VarExpr("i").Plus(Term(2, "j", 3)).String(); got != "i+2*j+3" {
		t.Errorf("String = %q", got)
	}
}

func TestIterate(t *testing.T) {
	p := MustParse(stencilSrc)
	n := p.Nests[0].Compile(nil)
	count := 0
	n.Iterate(iterations(1, func(iv []int64) bool {
		count++
		if iv[0] < 2 || iv[0] >= 7 || iv[1] < 2 || iv[1] >= 7 {
			t.Fatalf("iteration out of bounds: %v", iv)
		}
		return true
	}))
	if count != 25 {
		t.Errorf("iterations = %d, want 25", count)
	}

	// Early exit.
	count = 0
	completed := n.Iterate(iterations(1, func([]int64) bool {
		count++
		return count < 3
	}))
	if completed || count != 3 {
		t.Errorf("early exit: completed=%v count=%d", completed, count)
	}
}

func TestThreadChunk(t *testing.T) {
	cases := []struct {
		lo, hi   int64
		t, n     int
		wlo, whi int64
	}{
		{0, 8, 0, 4, 0, 2},
		{0, 8, 3, 4, 6, 8},
		{0, 7, 3, 4, 6, 7}, // short last chunk
		{0, 2, 3, 4, 2, 2}, // empty chunk
		{5, 5, 0, 4, 5, 5}, // empty range
		{2, 10, 1, 2, 6, 10},
	}
	for _, c := range cases {
		lo, hi := ThreadChunk(c.lo, c.hi, c.t, c.n)
		if lo != c.wlo || hi != c.whi {
			t.Errorf("ThreadChunk(%d,%d,%d,%d) = [%d,%d), want [%d,%d)",
				c.lo, c.hi, c.t, c.n, lo, hi, c.wlo, c.whi)
		}
	}
}

func TestThreadChunksPartition(t *testing.T) {
	// Chunks must partition the range exactly for various sizes.
	for _, total := range []int64{0, 1, 7, 8, 63, 64, 100} {
		for _, nt := range []int{1, 2, 4, 7, 64} {
			var covered int64
			prevHi := int64(0)
			for th := 0; th < nt; th++ {
				lo, hi := ThreadChunk(0, total, th, nt)
				if lo > hi {
					t.Fatalf("total=%d nt=%d t=%d: lo %d > hi %d", total, nt, th, lo, hi)
				}
				if th > 0 && lo != prevHi {
					t.Fatalf("total=%d nt=%d t=%d: gap at %d..%d", total, nt, th, prevHi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != total {
				t.Fatalf("total=%d nt=%d: covered %d", total, nt, covered)
			}
		}
	}
}

func TestIterateThread(t *testing.T) {
	p := MustParse(stencilSrc)
	n := p.Nests[0].Compile(nil)
	seen := map[[2]int64]int{}
	for th := 0; th < 4; th++ {
		n.Walk([]int{0, 1}, th, 4, iterations(1, func(iv []int64) bool {
			seen[[2]int64{iv[0], iv[1]}]++
			return true
		}))
	}
	if len(seen) != 25 {
		t.Errorf("threads covered %d iterations, want 25", len(seen))
	}
	for it, c := range seen {
		if c != 1 {
			t.Errorf("iteration %v visited %d times", it, c)
		}
	}
}

// touched returns, for each thread, the set of linear element indices of
// arr that thread touches across all nests of the program.
func touched(p *Program, arr *Array, nthreads int, store *DataStore) []map[int64]bool {
	out := make([]map[int64]bool, nthreads)
	for t := range out {
		out[t] = map[int64]bool{}
	}
	for _, nest := range p.Nests {
		cn := nest.Compile(store)
		for t := 0; t < nthreads; t++ {
			cn.Walk(cn.identity, t, nthreads, iterations(nest.Depth()-1, func(iv []int64) bool {
				for _, r := range cn.Refs {
					if r.Ref.Array == arr {
						out[t][arr.LinearIndex(r.Coord(iv, make(linalg.Vec, arr.NumDims())))] = true
					}
				}
				return true
			}))
		}
	}
	return out
}

func TestTouchedDisjointWhenParallel(t *testing.T) {
	// With the j-loop parallel and Z[j][i] style accesses after the paper's
	// transformation, each thread touches mostly its own rows. Here we use a
	// simple embarrassingly parallel kernel: disjoint write sets.
	p := MustParse(`
program par
array A[16][4]
parfor i = 0 .. 16 {
  for j = 0 .. 4 {
    A[i][j] = A[i][j]
  }
}
`)
	sets := touched(p, p.Array("A"), 4, nil)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			for e := range sets[a] {
				if sets[b][e] {
					t.Fatalf("threads %d and %d share element %d", a, b, e)
				}
			}
		}
	}
}

func TestLinearIndex(t *testing.T) {
	a := &Array{Name: "A", Dims: []int64{4, 8}, ElemSize: 8}
	if got := a.LinearIndex(linalg.NewVec(2, 3)); got != 2*8+3 {
		t.Errorf("LinearIndex = %d", got)
	}
	// Clamping.
	if got := a.LinearIndex(linalg.NewVec(-1, 100)); got != 0*8+7 {
		t.Errorf("clamped LinearIndex = %d", got)
	}
	if a.NumElems() != 32 || a.SizeBytes() != 256 {
		t.Errorf("NumElems=%d SizeBytes=%d", a.NumElems(), a.SizeBytes())
	}
}

func TestPrintRoundTrip(t *testing.T) {
	p := MustParse(stencilSrc)
	text := p.String()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if q.String() != text {
		t.Errorf("round trip mismatch:\n%s\n---\n%s", text, q.String())
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func() *Program {
		return MustParse(stencilSrc)
	}
	p := mk()
	p.Arrays[0].Dims[0] = 0
	if err := p.Validate(); err == nil {
		t.Error("zero extent accepted")
	}
	p = mk()
	p.Arrays[0].ElemSize = 0
	if err := p.Validate(); err == nil {
		t.Error("zero elem size accepted")
	}
	p = mk()
	p.Nests[0].ParDepth = 5
	if err := p.Validate(); err == nil {
		t.Error("bad par depth accepted")
	}
	p = mk()
	p.Nests[0].Loops[1].Var = "i"
	if err := p.Validate(); err == nil {
		t.Error("duplicate loop var accepted")
	}
}

func TestTripCount(t *testing.T) {
	p := MustParse(stencilSrc)
	if got := p.Nests[0].TripCount(); got != 25 {
		t.Errorf("TripCount = %d, want 25", got)
	}
}

func TestRefsTo(t *testing.T) {
	p := MustParse(stencilSrc)
	refs := p.RefsTo(p.Array("Z"))
	if len(refs) != 4 {
		t.Errorf("RefsTo(Z) = %d refs, want 4 (1 write + 3 reads)", len(refs))
	}
	for _, rn := range refs {
		if rn.Nest != p.Nests[0] {
			t.Error("wrong nest recorded")
		}
	}
}
