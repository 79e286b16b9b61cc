package ir

import (
	"fmt"

	"offchip/internal/linalg"
)

// DataStore holds the runtime contents of index arrays so compiled
// references can resolve indexed subscripts (A[idx[i]]). Arrays without
// stored contents read as zero.
type DataStore struct {
	vals map[*Array][]int64
}

// NewDataStore returns an empty store.
func NewDataStore() *DataStore {
	return &DataStore{vals: map[*Array][]int64{}}
}

// SetContents installs the linearized (row-major) integer contents of an
// index array.
func (d *DataStore) SetContents(a *Array, vals []int64) {
	d.vals[a] = vals
}

// Contents returns the stored contents of a, or nil.
func (d *DataStore) Contents(a *Array) []int64 {
	if d == nil {
		return nil
	}
	return d.vals[a]
}

// lookup reads position pos of index-array contents vs, clamping
// out-of-range positions into the stored extent (profile-approximated
// references may slightly overrun). Empty contents read 0.
func lookup(vs []int64, pos int64) int64 {
	if len(vs) == 0 {
		return 0
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= int64(len(vs)) {
		pos = int64(len(vs)) - 1
	}
	return vs[pos]
}

// ThreadChunk returns the half-open sub-range [lo', hi') of [lo, hi) that
// OpenMP static scheduling assigns to thread t of nthreads: the range is
// divided into nthreads contiguous chunks of size ⌈(hi−lo)/nthreads⌉ and
// assigned in thread order (the last chunks may be short or empty).
func ThreadChunk(lo, hi int64, t, nthreads int) (int64, int64) {
	if nthreads <= 0 {
		panic(fmt.Sprintf("ir: %d threads", nthreads))
	}
	total := hi - lo
	if total <= 0 {
		return lo, lo
	}
	chunk := (total + int64(nthreads) - 1) / int64(nthreads)
	clo := lo + int64(t)*chunk
	chi := clo + chunk
	if clo > hi {
		clo = hi
	}
	if chi > hi {
		chi = hi
	}
	return clo, chi
}

// row is an affine expression lowered over a nest's loop positions: its
// value at iteration vector iv is c + Σ coef[j]·iv[j], where iv[j] is the
// value of loop j (outermost first). Variables no loop of the nest binds
// are dropped, as they read 0 in LinExpr.Eval.
type row struct {
	coef []int64
	c    int64
}

func (r *row) eval(iv []int64) int64 {
	v := r.c
	for j, k := range r.coef {
		v += k * iv[j]
	}
	return v
}

// CompiledRef is a reference lowered against its nest — the r = A·i + o of
// Section 5 as one dense row per subscript. An indexed subscript keeps the
// row of its inner position and the index array's stored contents.
type CompiledRef struct {
	Ref  *Ref
	subs []compiledSub
}

type compiledSub struct {
	row
	indexed bool
	index   []int64 // contents of the index array; empty reads 0
}

// Coord writes the element coordinate the reference touches at iteration
// vector iv into coord, which must hold at least len(Ref.Subs) entries,
// and returns that prefix of coord.
func (c *CompiledRef) Coord(iv []int64, coord linalg.Vec) linalg.Vec {
	coord = coord[:len(c.subs)]
	for d := range c.subs {
		s := &c.subs[d]
		v := s.eval(iv)
		if s.indexed {
			v = lookup(s.index, v)
		}
		coord[d] = v
	}
	return coord
}

// CompiledNest is a loop nest lowered for enumeration: every loop bound and
// every body reference becomes dense rows over the loop positions, so
// walking the nest evaluates integer dot products instead of variable maps.
// A CompiledNest owns its iteration vector and is not safe for concurrent
// walks.
type CompiledNest struct {
	Nest *LoopNest
	// Refs holds every body reference in statement order, each
	// statement's write before its reads.
	Refs []CompiledRef

	lower, upper []row
	slot         map[string]int // loop variable -> loop position
	store        *DataStore
	iv           []int64
	identity     []int
}

// Compile lowers the nest, reading index-array contents from store (which
// may be nil: indexed subscripts then read 0). The nest's loop variables
// must be distinct, as Program.Validate requires.
func (n *LoopNest) Compile(store *DataStore) *CompiledNest {
	m := len(n.Loops)
	c := &CompiledNest{
		Nest:     n,
		slot:     make(map[string]int, m),
		store:    store,
		iv:       make([]int64, m),
		identity: make([]int, m),
		lower:    make([]row, m),
		upper:    make([]row, m),
	}
	for j, l := range n.Loops {
		if _, dup := c.slot[l.Var]; dup {
			panic(fmt.Sprintf("ir: nest reuses loop variable %s", l.Var))
		}
		c.slot[l.Var] = j
		c.identity[j] = j
	}
	for j, l := range n.Loops {
		c.lower[j], c.upper[j] = c.lowerExpr(l.Lower), c.lowerExpr(l.Upper)
	}
	for _, s := range n.Body {
		if s.Write != nil {
			c.Refs = append(c.Refs, c.CompileRef(s.Write))
		}
		for _, r := range s.Reads {
			c.Refs = append(c.Refs, c.CompileRef(r))
		}
	}
	return c
}

func (c *CompiledNest) lowerExpr(e LinExpr) row {
	r := row{coef: make([]int64, len(c.iv)), c: e.Const}
	for v, k := range e.Coeffs {
		if j, ok := c.slot[v]; ok {
			r.coef[j] = k
		}
	}
	return r
}

// CompileRef lowers a reference against the nest's loop positions, looking
// up the contents of its index arrays once.
func (c *CompiledNest) CompileRef(r *Ref) CompiledRef {
	cr := CompiledRef{Ref: r, subs: make([]compiledSub, len(r.Subs))}
	for d, sub := range r.Subs {
		if is, ok := r.IndexSubs[d]; ok {
			cr.subs[d] = compiledSub{row: c.lowerExpr(is.Inner), indexed: true, index: c.store.Contents(is.IndexArray)}
			continue
		}
		cr.subs[d] = compiledSub{row: c.lowerExpr(sub)}
	}
	return cr
}

// Bounds evaluates the [lo, hi) bounds of loop li at iteration vector iv.
func (c *CompiledNest) Bounds(li int, iv []int64) (lo, hi int64) {
	return c.lower[li].eval(iv), c.upper[li].eval(iv)
}

// Walk enumerates the iterations OpenMP static scheduling assigns to thread
// t of nthreads — the parallel loop's range split into contiguous chunks
// (ThreadChunk), every other loop in full — entering the loops in the given
// order, a permutation of loop positions. Bounds are evaluated when a loop
// is entered. yield receives the iteration vector, indexed by loop
// position; a loop's entry reads 0 before the loop is entered and after it
// exits, as an unbound variable does in LinExpr.Eval, so a bound over a
// loop not yet entered sees 0. The vector is reused, so yield must not
// retain it. The walk stops when yield returns false; Walk reports whether
// it ran to completion.
func (c *CompiledNest) Walk(order []int, t, nthreads int, yield func(iv []int64) bool) bool {
	if t < 0 || t >= nthreads {
		panic(fmt.Sprintf("ir: thread %d of %d", t, nthreads))
	}
	clear(c.iv)
	return c.walk(order, 0, t, nthreads, yield)
}

func (c *CompiledNest) walk(order []int, d, t, nthreads int, yield func([]int64) bool) bool {
	if d == len(order) {
		return yield(c.iv)
	}
	li := order[d]
	lo, hi := c.Bounds(li, c.iv)
	if li == c.Nest.ParDepth {
		lo, hi = ThreadChunk(lo, hi, t, nthreads)
	}
	for v := lo; v < hi; v++ {
		c.iv[li] = v
		if !c.walk(order, d+1, t, nthreads, yield) {
			return false
		}
	}
	c.iv[li] = 0
	return true
}

// Iterate enumerates the whole iteration space in lexicographic order: Walk
// with the identity loop order over one thread.
func (c *CompiledNest) Iterate(yield func(iv []int64) bool) bool {
	return c.Walk(c.identity, 0, 1, yield)
}
