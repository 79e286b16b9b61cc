// Package deps implements array dependence analysis for affine loop nests:
// ZIV/GCD screening and Banerjee bounds refined by direction vectors. The
// paper's compilation flow runs "a loop transformation guided by array
// dependence analysis" before the layout pass (Section 6.1); this package
// provides that analysis, and in particular the legality check for the
// cache-oriented loop permutation the trace generator applies. (The layout
// transformation itself needs no legality check — data transformations are
// a kind of renaming and are never constrained by dependences.)
package deps

import (
	"fmt"
	"strings"

	"offchip/internal/ir"
	"offchip/internal/linalg"
)

// Direction is one component of a dependence direction vector: the sign of
// i_dst − i_src at that loop level.
type Direction int8

// Direction values.
const (
	Lt   Direction = iota // dst iteration greater ("<" in source order)
	Eq                    // same iteration at this level
	Gt                    // dst iteration smaller (">")
	Star                  // unconstrained
)

func (d Direction) String() string {
	switch d {
	case Lt:
		return "<"
	case Eq:
		return "="
	case Gt:
		return ">"
	default:
		return "*"
	}
}

// Vector is a dependence direction vector, one Direction per loop level
// (outermost first).
type Vector []Direction

func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, d := range v {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Lexicographic classifies the vector: +1 if lexicographically positive
// (the first non-Eq is Lt), -1 if negative, 0 if all Eq. Star counts as
// potentially-either and classifies as +1 conservatively only when it is
// the leading non-Eq component — callers that need safety should expand
// Stars first (Feasible never produces Star).
func (v Vector) Lexicographic() int {
	for _, d := range v {
		switch d {
		case Lt, Star:
			return 1
		case Gt:
			return -1
		}
	}
	return 0
}

// Permute returns the vector reordered by perm: out[k] = v[perm[k]].
func (v Vector) Permute(perm []int) Vector {
	out := make(Vector, len(perm))
	for k, p := range perm {
		out[k] = v[p]
	}
	return out
}

// Kind classifies a dependence by the access types of its endpoints.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // write → read
	Anti               // read → write
	Output             // write → write
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	default:
		return "output"
	}
}

// Dep is one dependence between two references of a nest, with the set of
// feasible (lexicographically non-negative) direction vectors.
type Dep struct {
	Src, Dst *ir.Ref
	Kind     Kind
	Vectors  []Vector
}

func (d Dep) String() string {
	parts := make([]string, len(d.Vectors))
	for i, v := range d.Vectors {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s dep %s -> %s %s", d.Kind, d.Src, d.Dst, strings.Join(parts, " "))
}

// bounds returns conservative constant bounds [lo, hi] (inclusive) for each
// loop, widening bounds that depend on outer loops by evaluating them at
// the outer loops' own extreme values.
func bounds(nest *ir.LoopNest) (lo, hi []int64) {
	m := nest.Depth()
	lo = make([]int64, m)
	hi = make([]int64, m)
	// Environments carrying min and max values of enclosing loops.
	envLo := map[string]int64{}
	envHi := map[string]int64{}
	for k, l := range nest.Loops {
		cands := []int64{
			l.Lower.Eval(envLo), l.Lower.Eval(envHi),
			l.Upper.Eval(envLo), l.Upper.Eval(envHi),
		}
		a, b := cands[0], cands[0]
		for _, c := range cands[1:] {
			if c < a {
				a = c
			}
			if c > b {
				b = c
			}
		}
		lo[k], hi[k] = a, b-1 // half-open upper bound
		if hi[k] < lo[k] {
			hi[k] = lo[k]
		}
		envLo[l.Var], envHi[l.Var] = lo[k], hi[k]
	}
	return lo, hi
}

// Analyze returns the feasible direction vectors for a dependence from src
// to dst within the nest (references to the same array; at least one of
// them should be a write for the result to be a true dependence, but the
// test itself is access-type agnostic). Indexed references are treated
// conservatively: every direction vector is feasible.
func Analyze(nest *ir.LoopNest, src, dst *ir.Ref) []Vector {
	if src.Array != dst.Array {
		return nil
	}
	m := nest.Depth()
	if src.Indexed() || dst.Indexed() {
		return allVectors(m)
	}
	vars := nest.Vars()
	aS, oS := src.AccessMatrix(vars)
	aD, oD := dst.AccessMatrix(vars)
	lo, hi := bounds(nest)

	// GCD screening per dimension over the unconstrained (all-Star) space:
	// Σ aS_k·x_k − Σ aD_k·y_k = oD_d − oS_d must have an integer solution.
	for d := 0; d < src.Array.NumDims(); d++ {
		var coeffs []int64
		for k := 0; k < m; k++ {
			coeffs = append(coeffs, aS.At(d, k), aD.At(d, k))
		}
		g := linalg.GCDAll(coeffs...)
		c := oD[d] - oS[d]
		if g == 0 {
			if c != 0 {
				return nil // constant subscripts that differ: independent
			}
			continue
		}
		if c%g != 0 {
			return nil
		}
	}

	// Hierarchical direction refinement: enumerate the 3^m concrete
	// vectors and keep those the Banerjee bounds admit in every dimension.
	var out []Vector
	cur := make(Vector, m)
	var rec func(level int)
	rec = func(level int) {
		if level == m {
			if banerjeeFeasible(aS, oS, aD, oD, lo, hi, cur) {
				v := make(Vector, m)
				copy(v, cur)
				out = append(out, v)
			}
			return
		}
		for _, d := range []Direction{Lt, Eq, Gt} {
			cur[level] = d
			rec(level + 1)
		}
	}
	rec(0)
	return out
}

// allVectors returns every concrete direction vector of length m.
func allVectors(m int) []Vector {
	var out []Vector
	cur := make(Vector, m)
	var rec func(level int)
	rec = func(level int) {
		if level == m {
			v := make(Vector, m)
			copy(v, cur)
			out = append(out, v)
			return
		}
		for _, d := range []Direction{Lt, Eq, Gt} {
			cur[level] = d
			rec(level + 1)
		}
	}
	rec(0)
	return out
}

// banerjeeFeasible reports whether, for every array dimension, the
// difference Σ aS_k·x_k + oS − (Σ aD_k·y_k + oD) can be zero under the
// loop bounds and the per-level direction constraints (x = source
// iteration, y = destination iteration, direction = sign of y − x).
func banerjeeFeasible(aS *linalg.Mat, oS linalg.Vec, aD *linalg.Mat, oD linalg.Vec, lo, hi []int64, dir Vector) bool {
	for d := 0; d < aS.Rows(); d++ {
		minV, maxV := oS[d]-oD[d], oS[d]-oD[d]
		for k := range dir {
			a, b := aS.At(d, k), aD.At(d, k)
			tMin, tMax, ok := termRange(a, b, lo[k], hi[k], dir[k])
			if !ok {
				return false // direction infeasible at this level (empty range)
			}
			minV += tMin
			maxV += tMax
		}
		if minV > 0 || maxV < 0 {
			return false
		}
	}
	return true
}

// termRange bounds t = a·x − b·y for x, y ∈ [lo, hi] under the direction
// constraint on y − x. ok is false when the constrained region is empty
// (e.g. y < x on a single-point range).
func termRange(a, b, lo, hi int64, dir Direction) (tMin, tMax int64, ok bool) {
	eval := func(x, y int64) int64 { return a*x - b*y }
	var pts [][2]int64
	switch dir {
	case Eq:
		pts = [][2]int64{{lo, lo}, {hi, hi}}
	case Lt: // y ≥ x+1: polygon vertices
		if lo+1 > hi {
			return 0, 0, false
		}
		pts = [][2]int64{{lo, lo + 1}, {lo, hi}, {hi - 1, hi}}
	case Gt: // y ≤ x−1
		if lo+1 > hi {
			return 0, 0, false
		}
		pts = [][2]int64{{lo + 1, lo}, {hi, lo}, {hi, hi - 1}}
	default: // Star
		pts = [][2]int64{{lo, lo}, {lo, hi}, {hi, lo}, {hi, hi}}
	}
	tMin, tMax = eval(pts[0][0], pts[0][1]), eval(pts[0][0], pts[0][1])
	for _, p := range pts[1:] {
		v := eval(p[0], p[1])
		if v < tMin {
			tMin = v
		}
		if v > tMax {
			tMax = v
		}
	}
	return tMin, tMax, true
}

// NestDeps computes every dependence of the nest: all pairs of references
// to the same array where at least one endpoint writes. Vectors are
// normalized to be lexicographically non-negative (a negative vector is
// the reversed dependence and is reported from the other endpoint).
func NestDeps(nest *ir.LoopNest) []Dep {
	type access struct {
		ref   *ir.Ref
		write bool
	}
	var accs []access
	for _, s := range nest.Body {
		if s.Write != nil {
			accs = append(accs, access{s.Write, true})
		}
		for _, r := range s.Reads {
			accs = append(accs, access{r, false})
		}
	}
	var out []Dep
	for i, src := range accs {
		for j, dst := range accs {
			if !src.write && !dst.write {
				continue
			}
			if src.ref.Array != dst.ref.Array {
				continue
			}
			if j < i {
				continue // the (dst,src) pair covers the reverse
			}
			vecs := Analyze(nest, src.ref, dst.ref)
			var kept []Vector
			for _, v := range vecs {
				switch v.Lexicographic() {
				case 1:
					kept = append(kept, v)
				case 0:
					if i != j {
						kept = append(kept, v) // loop-independent dependence
					}
				}
				// A lexicographically negative vector is the reversed
				// (dst → src) dependence, which this pair does not keep.
			}
			if len(kept) == 0 {
				continue
			}
			kind := Output
			switch {
			case src.write && !dst.write:
				kind = Flow
			case !src.write && dst.write:
				kind = Anti
			}
			out = append(out, Dep{Src: src.ref, Dst: dst.ref, Kind: kind, Vectors: kept})
		}
	}
	return out
}

// PermutationLegal reports whether executing the nest with its loops
// reordered by perm (perm[k] = original index of the loop now at depth k)
// preserves every dependence: each direction vector, permuted, must remain
// lexicographically non-negative.
func PermutationLegal(depsList []Dep, perm []int) bool {
	for _, d := range depsList {
		for _, v := range d.Vectors {
			if v.Permute(perm).Lexicographic() < 0 {
				return false
			}
		}
	}
	return true
}

// InnermostLegal reports whether moving loop li to the innermost position
// (preserving the relative order of the others) is legal for the nest.
func InnermostLegal(nest *ir.LoopNest, li int) bool {
	m := nest.Depth()
	perm := make([]int, 0, m)
	for k := 0; k < m; k++ {
		if k != li {
			perm = append(perm, k)
		}
	}
	perm = append(perm, li)
	return PermutationLegal(NestDeps(nest), perm)
}
