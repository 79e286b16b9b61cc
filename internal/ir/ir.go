// Package ir defines the affine program representation consumed by the
// off-chip access localization pass: arrays, parallel loop nests with affine
// bounds, and array references of the form r = A·i + o where A is the access
// matrix over the iteration vector i.
//
// Programs can be built programmatically or parsed from a small textual
// affine-loop language (see Parse). A loop nest compiles (LoopNest.Compile)
// to dense integer rows over its loop positions, and the compiled nest's
// walker enumerates iterations under an OpenMP-static-style block
// distribution of the parallel loop across threads, which is how the trace
// generator derives per-core address streams.
package ir

import (
	"fmt"
	"sort"
	"strings"

	"offchip/internal/linalg"
)

// DefaultElemSize is the size in bytes of an array element when a program
// does not specify one (doubles, as in the Fortran-heavy SPECOMP suite).
const DefaultElemSize = 8

// Array declares an n-dimensional rectangular array. Layout is row-major:
// the last dimension varies fastest.
type Array struct {
	Name     string
	Dims     []int64 // extent of each dimension, slowest-varying first
	ElemSize int64   // bytes per element
}

// NumDims returns the dimensionality of the array.
func (a *Array) NumDims() int { return len(a.Dims) }

// NumElems returns the total number of elements.
func (a *Array) NumElems() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// SizeBytes returns the total footprint of the array in bytes.
func (a *Array) SizeBytes() int64 { return a.NumElems() * a.ElemSize }

// LinearIndex maps an element coordinate to its row-major linear index.
// It panics if the coordinate has the wrong arity; out-of-bounds components
// are clamped into range (affine approximations of indexed references may
// slightly over-approximate the data space, which must not crash the
// trace generator — see Section 5.4 of the paper).
func (a *Array) LinearIndex(coord linalg.Vec) int64 {
	if len(coord) != len(a.Dims) {
		panic(fmt.Sprintf("ir: coordinate arity %d for %d-dimensional array %s", len(coord), len(a.Dims), a.Name))
	}
	var idx int64
	for d, c := range coord {
		if c < 0 {
			c = 0
		}
		if c >= a.Dims[d] {
			c = a.Dims[d] - 1
		}
		idx = idx*a.Dims[d] + c
	}
	return idx
}

// LinExpr is an affine (linear + constant) expression over named loop
// variables. Loop bounds and subscript expressions are LinExprs.
type LinExpr struct {
	Coeffs map[string]int64
	Const  int64
}

// ConstExpr returns the constant expression c.
func ConstExpr(c int64) LinExpr { return LinExpr{Const: c} }

// VarExpr returns the expression 1·name.
func VarExpr(name string) LinExpr {
	return LinExpr{Coeffs: map[string]int64{name: 1}}
}

// Term returns the expression k·name + c.
func Term(k int64, name string, c int64) LinExpr {
	if k == 0 {
		return ConstExpr(c)
	}
	return LinExpr{Coeffs: map[string]int64{name: k}, Const: c}
}

// Plus returns e + f.
func (e LinExpr) Plus(f LinExpr) LinExpr {
	out := LinExpr{Coeffs: map[string]int64{}, Const: e.Const + f.Const}
	for v, k := range e.Coeffs {
		out.Coeffs[v] += k
	}
	for v, k := range f.Coeffs {
		out.Coeffs[v] += k
	}
	for v, k := range out.Coeffs {
		if k == 0 {
			delete(out.Coeffs, v)
		}
	}
	return out
}

// Scaled returns k·e.
func (e LinExpr) Scaled(k int64) LinExpr {
	out := LinExpr{Coeffs: map[string]int64{}, Const: k * e.Const}
	for v, c := range e.Coeffs {
		if k*c != 0 {
			out.Coeffs[v] = k * c
		}
	}
	return out
}

// Eval evaluates the expression under an environment of variable values.
// Unbound variables evaluate as zero.
func (e LinExpr) Eval(env map[string]int64) int64 {
	v := e.Const
	for name, k := range e.Coeffs {
		v += k * env[name]
	}
	return v
}

// IsConst reports whether the expression has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.Coeffs) == 0 }

// Coeff returns the coefficient of the named variable (zero if absent).
func (e LinExpr) Coeff(name string) int64 { return e.Coeffs[name] }

func (e LinExpr) String() string {
	names := make([]string, 0, len(e.Coeffs))
	for v := range e.Coeffs {
		names = append(names, v)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, v := range names {
		k := e.Coeffs[v]
		switch {
		case b.Len() == 0 && k == 1:
			b.WriteString(v)
		case b.Len() == 0 && k == -1:
			b.WriteString("-" + v)
		case b.Len() == 0:
			fmt.Fprintf(&b, "%d*%s", k, v)
		case k == 1:
			b.WriteString("+" + v)
		case k == -1:
			b.WriteString("-" + v)
		case k > 0:
			fmt.Fprintf(&b, "+%d*%s", k, v)
		default:
			fmt.Fprintf(&b, "-%d*%s", -k, v)
		}
	}
	if b.Len() == 0 {
		return fmt.Sprintf("%d", e.Const)
	}
	if e.Const > 0 {
		fmt.Fprintf(&b, "+%d", e.Const)
	} else if e.Const < 0 {
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}

// Ref is a reference to an array. For an affine reference, Subs holds one
// affine subscript expression per array dimension; the access matrix A and
// offset vector o of r = A·i + o are derived from Subs relative to the
// enclosing nest's loop-variable order (see AccessMatrix).
//
// An indexed reference (Section 5.4) has at least one subscript read through
// an index array; those subscript positions are recorded in IndexSubs and
// resolved from a DataStore's contents when the nest is compiled.
type Ref struct {
	Array *Array
	Subs  []LinExpr

	// IndexSubs maps a subscript position to an indirection: the value of
	// the subscript is IndexArray[inner] where inner is itself an affine
	// expression over the loop variables. Nil for purely affine references.
	IndexSubs map[int]*IndexSub
}

// IndexSub describes a single indexed subscript A[ X[inner] ].
type IndexSub struct {
	IndexArray *Array  // the index array being read (e.g. the CRS col array)
	Inner      LinExpr // affine position within the index array
}

// Indexed reports whether any subscript of the reference is indirected
// through an index array.
func (r *Ref) Indexed() bool { return len(r.IndexSubs) > 0 }

// AccessMatrix derives the access matrix A (n×m) and offset vector o from
// the affine subscripts, where vars lists the enclosing loop variables
// outermost first. Indexed subscript rows are zero in A (their variability
// is not affine); callers that need an affine view of an indexed reference
// use package approx to fit one from profile data.
func (r *Ref) AccessMatrix(vars []string) (*linalg.Mat, linalg.Vec) {
	n := len(r.Subs)
	a := linalg.NewMat(n, len(vars))
	o := make(linalg.Vec, n)
	for d, sub := range r.Subs {
		if r.IndexSubs != nil {
			if _, ok := r.IndexSubs[d]; ok {
				continue
			}
		}
		for j, v := range vars {
			a.Set(d, j, sub.Coeff(v))
		}
		o[d] = sub.Const
	}
	return a, o
}

func (r *Ref) String() string {
	var b strings.Builder
	b.WriteString(r.Array.Name)
	for d, s := range r.Subs {
		if is, ok := r.IndexSubs[d]; ok {
			fmt.Fprintf(&b, "[%s[%s]]", is.IndexArray.Name, is.Inner)
		} else {
			fmt.Fprintf(&b, "[%s]", s)
		}
	}
	return b.String()
}

// Statement is one assignment in a loop body: a write reference and the
// read references on the right-hand side. The arithmetic connecting the
// reads is irrelevant to layout optimization and is not represented.
type Statement struct {
	Write *Ref
	Reads []*Ref
}

// Refs returns all references of the statement, write first.
func (s *Statement) Refs() []*Ref {
	out := make([]*Ref, 0, 1+len(s.Reads))
	if s.Write != nil {
		out = append(out, s.Write)
	}
	out = append(out, s.Reads...)
	return out
}

func (s *Statement) String() string {
	var b strings.Builder
	if s.Write != nil {
		b.WriteString(s.Write.String())
		b.WriteString(" = ")
	}
	for i, r := range s.Reads {
		if i > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// Loop is one level of a loop nest with affine bounds. The iteration range
// is the half-open interval [Lower, Upper); Step is always 1 in this IR
// (non-unit strides are normalized away by the front end).
type Loop struct {
	Var   string
	Lower LinExpr
	Upper LinExpr
}

// LoopNest is an m-level perfectly nested affine loop with one parallelized
// level. ParDepth is the index u (0-based, outermost first) of the
// parallelized loop: the iteration partition dimension of Section 5.1.
type LoopNest struct {
	Loops    []Loop
	ParDepth int
	Body     []*Statement
}

// Depth returns the number of loop levels m.
func (n *LoopNest) Depth() int { return len(n.Loops) }

// Vars returns the loop variables outermost first.
func (n *LoopNest) Vars() []string {
	vs := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		vs[i] = l.Var
	}
	return vs
}

// TripCount returns the product of per-loop trip counts assuming constant
// bounds; loops with variable bounds contribute their trip count at the
// all-zero environment. This is the reference-weight estimate of
// Section 5.2 (weights are products of enclosing trip counts).
func (n *LoopNest) TripCount() int64 {
	env := map[string]int64{}
	total := int64(1)
	for _, l := range n.Loops {
		lo, hi := l.Lower.Eval(env), l.Upper.Eval(env)
		if hi > lo {
			total *= hi - lo
		}
	}
	return total
}

// Program is a whole data-parallel application: its arrays and parallel
// loop nests.
type Program struct {
	Name   string
	Arrays []*Array
	Nests  []*LoopNest
}

// Array returns the named array, or nil if not declared.
func (p *Program) Array(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RefsTo returns all references to the given array across all nests,
// paired with their enclosing nest.
func (p *Program) RefsTo(arr *Array) []RefInNest {
	var out []RefInNest
	for _, n := range p.Nests {
		for _, s := range n.Body {
			for _, r := range s.Refs() {
				if r.Array == arr {
					out = append(out, RefInNest{Ref: r, Nest: n})
				}
			}
		}
	}
	return out
}

// RefInNest pairs a reference with the loop nest that encloses it.
type RefInNest struct {
	Ref  *Ref
	Nest *LoopNest
}

// Validate checks structural invariants: subscript arity matches array
// dimensionality, the parallel depth is in range, loop variables are unique
// within a nest, and bounds reference only enclosing loop variables.
func (p *Program) Validate() error {
	for _, a := range p.Arrays {
		if len(a.Dims) == 0 {
			return fmt.Errorf("ir: array %s has no dimensions", a.Name)
		}
		for d, x := range a.Dims {
			if x <= 0 {
				return fmt.Errorf("ir: array %s dimension %d has extent %d", a.Name, d, x)
			}
		}
		if a.ElemSize <= 0 {
			return fmt.Errorf("ir: array %s has element size %d", a.Name, a.ElemSize)
		}
	}
	for ni, n := range p.Nests {
		if len(n.Loops) == 0 {
			return fmt.Errorf("ir: nest %d has no loops", ni)
		}
		if n.ParDepth < 0 || n.ParDepth >= len(n.Loops) {
			return fmt.Errorf("ir: nest %d parallel depth %d out of range", ni, n.ParDepth)
		}
		seen := map[string]bool{}
		for li, l := range n.Loops {
			if seen[l.Var] {
				return fmt.Errorf("ir: nest %d reuses loop variable %s", ni, l.Var)
			}
			seen[l.Var] = true
			for v := range l.Lower.Coeffs {
				if !seen[v] {
					return fmt.Errorf("ir: nest %d loop %d lower bound uses %s before it is defined", ni, li, v)
				}
			}
			for v := range l.Upper.Coeffs {
				if !seen[v] {
					return fmt.Errorf("ir: nest %d loop %d upper bound uses %s before it is defined", ni, li, v)
				}
			}
		}
		for si, s := range n.Body {
			for _, r := range s.Refs() {
				if r.Array == nil {
					return fmt.Errorf("ir: nest %d stmt %d has a reference with no array", ni, si)
				}
				if len(r.Subs) != r.Array.NumDims() {
					return fmt.Errorf("ir: nest %d stmt %d: %s subscripted with %d of %d dims",
						ni, si, r.Array.Name, len(r.Subs), r.Array.NumDims())
				}
				for v := range subVars(r) {
					if !seen[v] {
						return fmt.Errorf("ir: nest %d stmt %d: reference to %s uses unknown variable %s",
							ni, si, r.Array.Name, v)
					}
				}
			}
		}
	}
	return nil
}

func subVars(r *Ref) map[string]bool {
	vs := map[string]bool{}
	for d, s := range r.Subs {
		if is, ok := r.IndexSubs[d]; ok {
			for v := range is.Inner.Coeffs {
				vs[v] = true
			}
			continue
		}
		for v := range s.Coeffs {
			vs[v] = true
		}
	}
	return vs
}
