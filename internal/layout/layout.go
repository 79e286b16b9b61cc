package layout

import (
	"fmt"
	"sort"
	"strings"

	"offchip/internal/ir"
)

// Options tunes the pass.
type Options struct {
	// Threads is the number of worker threads the parallel loops are
	// distributed over. Zero means one thread per core.
	Threads int
	// Approx resolves indexed references (Section 5.4); nil leaves them
	// unoptimized.
	Approx Approximator
}

// Result is the outcome of running the pass on a program: a layout per
// array plus the aggregate statistics reported in Table 2.
type Result struct {
	Program *ir.Program
	Machine Machine
	Mapping *ClusterMapping
	Layouts map[*ir.Array]*ArrayLayout

	ArraysTotal     int
	ArraysOptimized int

	RefWeightTotal     int64
	RefWeightSatisfied int64
}

// Layout returns the layout chosen for the array (identity if the array
// was not optimized or not part of the program).
func (r *Result) Layout(arr *ir.Array) *ArrayLayout {
	if al, ok := r.Layouts[arr]; ok {
		return al
	}
	return IdentityLayout(arr, "not analyzed")
}

// PctArraysOptimized returns the "arrays optimized" column of Table 2.
func (r *Result) PctArraysOptimized() float64 {
	if r.ArraysTotal == 0 {
		return 0
	}
	return 100 * float64(r.ArraysOptimized) / float64(r.ArraysTotal)
}

// PctRefsSatisfied returns the "references satisfied" column of Table 2:
// the weighted fraction of references whose layout preference the chosen
// per-array transformations satisfy.
func (r *Result) PctRefsSatisfied() float64 {
	if r.RefWeightTotal == 0 {
		return 0
	}
	return 100 * float64(r.RefWeightSatisfied) / float64(r.RefWeightTotal)
}

// Optimize runs the full pass (Algorithm 1) on every array of the program.
// Arrays that cannot be optimized (pointer-like/indexed references with no
// acceptable affine approximation, or no thread-separating hyperplane) keep
// their original layout; this is never an error, matching the paper's
// Table 2 where no application reaches 100%.
func Optimize(p *ir.Program, m Machine, cm *ClusterMapping, opts *Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cm == nil {
		return nil, fmt.Errorf("layout: nil L2-to-MC mapping")
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	if cm.MeshX != m.MeshX || cm.MeshY != m.MeshY {
		return nil, fmt.Errorf("layout: mapping is for a %dx%d mesh, machine is %dx%d",
			cm.MeshX, cm.MeshY, m.MeshX, m.MeshY)
	}
	if cm.NumMCs() != m.NumMCs {
		return nil, fmt.Errorf("layout: mapping uses %d MCs, machine has %d", cm.NumMCs(), m.NumMCs)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var appr Approximator
	threads := m.Cores()
	if opts != nil {
		if opts.Threads > 0 {
			threads = opts.Threads
		}
		appr = opts.Approx
	}

	res := &Result{
		Program: p,
		Machine: m,
		Mapping: cm,
		Layouts: map[*ir.Array]*ArrayLayout{},
	}
	for _, arr := range p.Arrays {
		if isIndexOnlyArray(p, arr) {
			// Pure index arrays (read only inside other arrays' subscripts
			// and sequential setup) are metadata, not optimized data.
			res.Layouts[arr] = IdentityLayout(arr, "index array")
			continue
		}
		res.ArraysTotal++
		d2c, err := dataToCore(p, arr, appr)
		if err != nil {
			var weight int64
			for _, ri := range collectRefs(p, arr, appr) {
				weight += ri.weight
			}
			res.RefWeightTotal += weight
			res.Layouts[arr] = IdentityLayout(arr, err.Error())
			continue
		}
		al, err := customize(d2c, m, cm, threads)
		if err != nil {
			return nil, fmt.Errorf("layout: customizing %s: %w", arr.Name, err)
		}
		res.Layouts[arr] = al
		res.ArraysOptimized++
		res.RefWeightTotal += d2c.TotalWeight
		res.RefWeightSatisfied += d2c.SatisfiedWeight
	}
	return res, nil
}

// isIndexOnlyArray reports whether the array appears only as an index array
// inside other references' subscripts (it is never directly read or
// written by a statement).
func isIndexOnlyArray(p *ir.Program, arr *ir.Array) bool {
	usedAsIndex := false
	for _, n := range p.Nests {
		for _, s := range n.Body {
			for _, r := range s.Refs() {
				if r.Array == arr {
					return false
				}
				for _, is := range r.IndexSubs {
					if is.IndexArray == arr {
						usedAsIndex = true
					}
				}
			}
		}
	}
	return usedAsIndex
}

// TransformedSubs applies the Data-to-Core transformation to a reference's
// subscripts: r' = U·r, the Figure 9(b) form. The subscripts of an
// unoptimized array or an indexed reference pass through unchanged.
func (al *ArrayLayout) TransformedSubs(r *ir.Ref) []ir.LinExpr {
	if !al.Optimized || r.Indexed() {
		return r.Subs
	}
	n := len(r.Subs)
	out := make([]ir.LinExpr, n)
	for d := 0; d < n; d++ {
		e := ir.ConstExpr(0)
		for e2 := 0; e2 < n; e2++ {
			e = e.Plus(r.Subs[e2].Scaled(al.uRows[d][e2]))
		}
		out[d] = e
	}
	return out
}

// Report renders a human-readable summary of the pass outcome.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: %d/%d arrays optimized (%.0f%%), %.0f%% of references satisfied\n",
		r.Program.Name, r.ArraysOptimized, r.ArraysTotal, r.PctArraysOptimized(), r.PctRefsSatisfied())
	names := make([]string, 0, len(r.Layouts))
	byName := map[string]*ArrayLayout{}
	for arr, al := range r.Layouts {
		names = append(names, arr.Name)
		byName[arr.Name] = al
	}
	sort.Strings(names)
	for _, name := range names {
		al := byName[name]
		if al.Optimized {
			fmt.Fprintf(&b, "  %-10s optimized: gv=%v, %d B footprint (%.1f%% padding)\n",
				name, al.D2C.Gv, al.SizeBytes(),
				100*float64(al.SizeBytes()-al.Array.SizeBytes())/float64(al.Array.SizeBytes()))
		} else {
			fmt.Fprintf(&b, "  %-10s original layout (%s)\n", name, al.Reason)
		}
	}
	return b.String()
}
