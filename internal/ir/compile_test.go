package ir

import (
	"fmt"
	"math/rand"
	"testing"

	"offchip/internal/linalg"
)

// The compiled form must be an exact lowering of the map-environment
// semantics of LinExpr.Eval and DataStore.Lookup. These property tests
// compare it against test-local reference evaluators written in those
// terms.

// refEvalMap evaluates a reference's coordinate under a variable map, the
// way the map-environment interpreter did: an indexed position is clamped
// into the index array's stored extent, and missing or empty contents
// read 0.
func refEvalMap(r *Ref, env map[string]int64, store *DataStore) []int64 {
	coord := make([]int64, len(r.Subs))
	for d, sub := range r.Subs {
		is, ok := r.IndexSubs[d]
		if !ok {
			coord[d] = sub.Eval(env)
			continue
		}
		vs, pos := store.Contents(is.IndexArray), is.Inner.Eval(env)
		switch {
		case len(vs) == 0:
			coord[d] = 0
		case pos < 0:
			coord[d] = vs[0]
		case pos >= int64(len(vs)):
			coord[d] = vs[len(vs)-1]
		default:
			coord[d] = vs[pos]
		}
	}
	return coord
}

// envOf names each loop position's value in iv.
func envOf(n *LoopNest, iv []int64) map[string]int64 {
	env := map[string]int64{}
	for j, l := range n.Loops {
		env[l.Var] = iv[j]
	}
	return env
}

// randExpr draws an affine expression over names, with coefficients in
// [-3, 3] kept even when zero, so explicit zero terms are exercised too.
func randExpr(rng *rand.Rand, names []string) LinExpr {
	e := LinExpr{Coeffs: map[string]int64{}, Const: rng.Int63n(41) - 20}
	for _, v := range names {
		if rng.Intn(3) > 0 {
			e.Coeffs[v] = rng.Int63n(7) - 3
		}
	}
	return e
}

func TestCompiledRowMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loopVars := []string{"i", "j", "k", "l"}
	// "p" and "q" are bound by no loop of the nest: they read 0.
	names := append(append([]string{}, loopVars...), "p", "q")
	for trial := 0; trial < 500; trial++ {
		depth := 1 + rng.Intn(len(loopVars))
		nest := &LoopNest{}
		for _, v := range loopVars[:depth] {
			nest.Loops = append(nest.Loops, Loop{Var: v, Lower: ConstExpr(0), Upper: ConstExpr(1)})
		}
		dims := 1 + rng.Intn(3)
		arr := &Array{Name: "A", Dims: make([]int64, dims), ElemSize: 8}
		ref := &Ref{Array: arr}
		for d := 0; d < dims; d++ {
			arr.Dims[d] = 16
			ref.Subs = append(ref.Subs, randExpr(rng, names))
		}
		nest.Body = []*Statement{{Write: ref}}
		cn := nest.Compile(nil)
		iv := make([]int64, depth)
		for j := range iv {
			iv[j] = rng.Int63n(201) - 100
		}
		got := cn.Refs[0].Coord(iv, make(linalg.Vec, dims))
		want := refEvalMap(ref, envOf(nest, iv), nil)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("trial %d: subscript %d = %v at %v: compiled %d, Eval %d",
					trial, d, ref.Subs[d], iv, got[d], want[d])
			}
		}
	}
}

func TestCompiledIndexedRefMatchesLookup(t *testing.T) {
	idx := &Array{Name: "col", Dims: []int64{10}, ElemSize: 8}
	x := &Array{Name: "x", Dims: []int64{64, 4}, ElemSize: 8}
	nest := &LoopNest{Loops: []Loop{
		{Var: "i", Lower: ConstExpr(-20), Upper: ConstExpr(20)},
		{Var: "j", Lower: ConstExpr(0), Upper: ConstExpr(3)},
	}}
	// x[col[2*i - j + 3]][j]: positions run from below 0 to past the
	// stored extent of col.
	ref := &Ref{
		Array:     x,
		Subs:      []LinExpr{ConstExpr(0), VarExpr("j")},
		IndexSubs: map[int]*IndexSub{0: {IndexArray: idx, Inner: Term(2, "i", 3).Plus(Term(-1, "j", 0))}},
	}
	nest.Body = []*Statement{{Reads: []*Ref{ref}}}

	full := NewDataStore()
	vals := make([]int64, 10)
	for i := range vals {
		vals[i] = int64(i*i + 1)
	}
	full.SetContents(idx, vals)
	empty := NewDataStore()
	empty.SetContents(idx, []int64{})
	stores := map[string]*DataStore{
		"contents": full,
		"nil":      nil,
		"empty":    empty,
		"unset":    NewDataStore(),
	}
	for name, store := range stores {
		cn := nest.Compile(store)
		cr := cn.CompileRef(ref)
		below, past := false, false
		cn.Iterate(func(iv []int64) bool {
			env := envOf(nest, iv)
			if pos := ref.IndexSubs[0].Inner.Eval(env); pos < 0 {
				below = true
			} else if pos >= int64(len(vals)) {
				past = true
			}
			got := cr.Coord(iv, make(linalg.Vec, 2))
			want := refEvalMap(ref, env, store)
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("%s store at %v: compiled %v, map %v", name, iv, got, want)
			}
			return true
		})
		if !below || !past {
			t.Fatalf("%s store: positions never left the extent (below=%v past=%v)", name, below, past)
		}
	}
}

// walkMap is the map-environment walker the compiled one replaced: loops
// are entered in order, bounds evaluated on entry with unbound variables
// reading 0, and a loop's variable unbound again when the loop exits.
func walkMap(n *LoopNest, order []int, t, nthreads int, yield func(env map[string]int64) bool) bool {
	env := map[string]int64{}
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == len(order) {
			return yield(env)
		}
		l := n.Loops[order[d]]
		lo, hi := l.Lower.Eval(env), l.Upper.Eval(env)
		if order[d] == n.ParDepth {
			lo, hi = ThreadChunk(lo, hi, t, nthreads)
		}
		for v := lo; v < hi; v++ {
			env[l.Var] = v
			if !rec(d + 1) {
				return false
			}
		}
		delete(env, l.Var)
		return true
	}
	return rec(0)
}

// permutations returns every ordering of 0..m-1.
func permutations(m int) [][]int {
	if m == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(m - 1) {
		for pos := 0; pos <= len(p); pos++ {
			q := append(append(append([]int{}, p[:pos]...), m-1), p[pos:]...)
			out = append(out, q)
		}
	}
	return out
}

func TestWalkMatchesMapWalker(t *testing.T) {
	srcs := map[string]string{
		// The parallel loop is not outermost, and the innermost bounds
		// depend on both outer loops.
		"inner-parfor": `
program w
array A[16][16][16]
for i = 0 .. 4 {
  parfor j = i .. i+9 {
    for k = 2*j-3 .. j+i+2 {
      A[i][j][k] = A[k][j][i]
    }
  }
}
`,
		// hpccg's CRS shape: the nonzero loop runs 8·row .. 8·row+8.
		"hpccg": `
program h
array y[32]
array val[256]
parfor row = 0 .. 32 {
  for nz = 8*row .. 8*row+8 {
    y[row] = y[row] + val[nz]
  }
}
`,
	}
	for name, src := range srcs {
		n := MustParse(src).Nests[0]
		cn := n.Compile(nil)
		for _, order := range permutations(n.Depth()) {
			for _, nthreads := range []int{1, 3, 4} {
				for th := 0; th < nthreads; th++ {
					var want [][]int64
					walkMap(n, order, th, nthreads, func(env map[string]int64) bool {
						iv := make([]int64, n.Depth())
						for j, l := range n.Loops {
							iv[j] = env[l.Var]
						}
						want = append(want, iv)
						return true
					})
					var got [][]int64
					cn.Walk(order, th, nthreads, func(iv []int64) bool {
						got = append(got, append([]int64{}, iv...))
						return true
					})
					tag := fmt.Sprintf("%s order %v thread %d/%d", name, order, th, nthreads)
					if len(got) != len(want) {
						t.Fatalf("%s: %d iterations, map walker %d", tag, len(got), len(want))
					}
					for i := range want {
						for j := range want[i] {
							if got[i][j] != want[i][j] {
								t.Fatalf("%s: iteration %d = %v, map walker %v", tag, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestWalkEarlyStopResets(t *testing.T) {
	// A walk cut short leaves loop entries set; the next walk must start
	// from all-unbound again. Entering nz before row makes nz's bounds read
	// row, which must be 0 then, not the stopped walk's last value.
	n := MustParse(`
program h
array val[256]
parfor row = 0 .. 32 {
  for nz = 8*row .. 8*row+8 {
    val[nz] = val[nz]
  }
}
`).Nests[0]
	cn := n.Compile(nil)
	order := []int{1, 0}
	count := 0
	if cn.Walk(order, 0, 1, func([]int64) bool { count++; return count < 6 }) {
		t.Fatal("stopped walk reported completion")
	}
	var first []int64
	cn.Walk(order, 0, 1, func(iv []int64) bool {
		first = append([]int64{}, iv...)
		return false
	})
	if first[0] != 0 || first[1] != 0 {
		t.Errorf("first iteration after a stopped walk = %v, want [0 0]", first)
	}
}
