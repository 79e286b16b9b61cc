// Package trace turns an affine program plus a layout-pass result into the
// per-core virtual-address streams the simulator replays. Each software
// thread executes its OpenMP-static chunk of every parallel nest in program
// order; every reference becomes one access whose virtual address is the
// array's base plus the layout's Offset — so the same generator produces
// baseline traces (identity layouts) and optimized traces (customized
// layouts), and indexed references resolve through the profiled index
// arrays exactly as the real program would.
package trace

import (
	"fmt"
	"slices"

	"offchip/internal/deps"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/linalg"
	"offchip/internal/sim"
)

// Options shapes trace generation.
type Options struct {
	// Threads is the total software thread count (default: one per core).
	Threads int
	// MaxAccessesPerThread caps each thread's trace; iteration sampling
	// (a deterministic stride) covers the whole iteration space when the
	// cap is smaller than the full run. Zero means DefaultMaxAccesses;
	// Unlimited disables sampling entirely. Experiments use full traces —
	// sampling perturbs cache reuse differently for different layouts,
	// and the paper's effect must come from request placement, not from
	// miss-count changes (Section 6.1 reports <1% LLC-miss impact).
	MaxAccessesPerThread int
	// AppID tags the streams (distinct IDs isolate address spaces in
	// multiprogrammed runs).
	AppID int
}

// DefaultMaxAccesses bounds per-thread traces so full-suite experiments
// stay laptop-fast while covering every array region.
const DefaultMaxAccesses = 1500

// Unlimited disables the per-thread access cap and iteration sampling.
const Unlimited = -1

// Generate builds the workload for one application under the layouts in
// res. The store supplies index-array contents for irregular references.
func Generate(p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt Options) (*sim.Workload, error) {
	cores := m.Cores()
	threads := opt.Threads
	if threads <= 0 {
		threads = cores
	}
	unlimited := opt.MaxAccessesPerThread < 0
	maxAcc := opt.MaxAccessesPerThread
	if maxAcc == 0 {
		maxAcc = DefaultMaxAccesses
	}
	if unlimited {
		maxAcc = 1 << 62
	}

	bases, err := PlaceArrays(p, res, m)
	if err != nil {
		return nil, err
	}

	// Compile every nest once and fix its loop order and per-reference
	// layout and base address, so the per-thread walks below only evaluate
	// dense rows.
	plans := make([]nestPlan, len(p.Nests))
	maxDims := 0
	for ni, nest := range p.Nests {
		cn := nest.Compile(store)
		pl := &plans[ni]
		pl.nest, pl.trip = cn, nest.TripCount()
		pl.refs = make([]refPlan, len(cn.Refs))
		for i := range cn.Refs {
			arr := cn.Refs[i].Ref.Array
			pl.refs[i] = refPlan{ref: &cn.Refs[i], layout: res.Layout(arr), base: bases[arr]}
			maxDims = max(maxDims, arr.NumDims())
		}
	}
	coord := make(linalg.Vec, maxDims)
	for ni := range plans {
		pl := &plans[ni]
		pl.order = loopOrder(pl, coord)
		pl.inner = pl.order[len(pl.order)-1]
		for i := range pl.refs {
			r := &pl.refs[i]
			if step, affine := r.ref.Step(pl.inner, coord); affine {
				r.run = r.layout.NewRun(step)
			}
		}
	}

	// Each thread's accesses are appended into one scratch slice, reused
	// across threads, and each stream keeps an exact-length copy: the
	// slack of append's growth stays out of the returned workload (and out
	// of every trace cache that holds it).
	w := &sim.Workload{Name: p.Name, Streams: make([]sim.Stream, 0, threads)}
	var accs []sim.Access
	for t := 0; t < threads; t++ {
		stream := sim.Stream{Core: t % cores, AppID: opt.AppID, Phases: make([]int, 0, len(plans))}
		accs = accs[:0]
		budget := maxAcc
		for ni := range plans {
			pl := &plans[ni]
			stream.Phases = append(stream.Phases, len(accs))
			if budget <= 0 {
				// Budget exhausted: the nest contributes no accesses, but
				// every nest still gets its marker so phase indices agree
				// across streams whose budgets ran out at different points.
				continue
			}
			// Split the remaining budget over the remaining nests, so
			// earlier nests don't consume the whole budget.
			nestBudget := budget / (len(plans) - ni)
			if nestBudget == 0 {
				nestBudget = 1
			}
			refsPerIter := len(pl.refs)
			if refsPerIter == 0 {
				continue
			}
			iterBudget := nestBudget / refsPerIter
			if iterBudget == 0 {
				iterBudget = 1
			}
			// Thread's share of the nest's iterations.
			totalIters := pl.trip / int64(threads)
			if totalIters == 0 {
				totalIters = 1
			}
			stride := int64(1)
			if totalIters > int64(iterBudget) {
				stride = totalIters / int64(iterBudget)
			}
			// The thread keeps every stride-th iteration it walks; k
			// counts the iterations walked before the current run.
			var k int64
			pl.nest.Walk(pl.order, t, threads, func(iv []int64, lo, hi int64) bool {
				n := hi - lo
				if stride == 1 && int64(maxAcc-len(accs)) >= n*int64(refsPerIter) {
					accs = pl.emitRun(iv, lo, hi, coord, accs)
					return len(accs) < maxAcc
				}
				// The reference path, one sampled iteration at a time:
				// sampling strides, and the run the budget cuts short.
				first := lo + (stride-k%stride)%stride
				k += n
				for v := first; v < hi; v += stride {
					iv[pl.inner] = v
					for i := range pl.refs {
						if len(accs) >= maxAcc {
							return false
						}
						r := &pl.refs[i]
						off := r.layout.Offset(r.ref.Coord(iv, coord))
						accs = append(accs, sim.Access{
							VAddr:     r.base + off,
							DesiredMC: int8(r.layout.DesiredMC(off)),
						})
					}
					if len(accs) >= maxAcc {
						return false
					}
				}
				return true
			})
			budget = maxAcc - len(accs)
		}
		if len(accs) > 0 {
			// Clone, unlike make and copy, does not zero what it copies
			// over; Clip drops the size-class rounding from the capacity.
			stream.Accesses = slices.Clip(slices.Clone(accs))
		}
		w.Streams = append(w.Streams, stream)
	}
	return w, nil
}

// nestPlan is one nest prepared for generation: compiled, with its loop
// order chosen and its references bound to their layouts and bases.
type nestPlan struct {
	nest  *ir.CompiledNest
	order []int
	inner int // the innermost loop of order
	trip  int64
	refs  []refPlan
}

// refPlan is one reference of a nest, bound to its layout and array base.
// run steps an affine reference along the nest's innermost loop; it is nil
// for an indexed reference.
type refPlan struct {
	ref    *ir.CompiledRef
	layout *layout.ArrayLayout
	base   int64
	run    *layout.Run
}

// emitRun appends the accesses of the run [lo, hi) of the innermost loop,
// iteration by iteration and each iteration's references in order: an
// affine reference through its Run, an indexed one through its subscripts
// and the layout's Offset and DesiredMC.
func (pl *nestPlan) emitRun(iv []int64, lo, hi int64, coord linalg.Vec, accs []sim.Access) []sim.Access {
	for i := range pl.refs {
		if r := &pl.refs[i]; r.run != nil {
			r.run.Start(r.ref.Coord(iv, coord), hi-lo)
		}
	}
	accs = slices.Grow(accs, int(hi-lo)*len(pl.refs))
	for v := lo; v < hi; v++ {
		for i := range pl.refs {
			r := &pl.refs[i]
			var off int64
			var mc int
			if r.run != nil {
				off, mc = r.run.Next()
			} else {
				iv[pl.inner] = v
				off = r.layout.Offset(r.ref.Coord(iv, coord))
				mc = r.layout.DesiredMC(off)
			}
			accs = append(accs, sim.Access{VAddr: r.base + off, DesiredMC: int8(mc)})
		}
	}
	return accs
}

// PlaceArrays assigns each array a base virtual address aligned so that the
// MC-select and home-bank bits of offset zero are zero: bases are multiples
// of both NumMCs·PageBytes and Cores·LineBytes (the padding alignment of
// Section 5.3).
func PlaceArrays(p *ir.Program, res *layout.Result, m layout.Machine) (map[*ir.Array]int64, error) {
	align := m.PageBytes * int64(m.NumMCs)
	if cl := m.LineUnit() * int64(m.Cores()); cl > align {
		if cl%align == 0 {
			align = cl
		} else {
			align *= cl // fallback: a common multiple
		}
	}
	bases := map[*ir.Array]int64{}
	var next int64
	for _, arr := range p.Arrays {
		bases[arr] = next
		size := res.Layout(arr).SizeBytes()
		if size <= 0 {
			return nil, fmt.Errorf("trace: array %s has size %d", arr.Name, size)
		}
		next += (size + align - 1) / align * align
	}
	return bases, nil
}

// Merge combines the streams of several workloads (multiprogrammed mixes).
func Merge(name string, ws ...*sim.Workload) *sim.Workload {
	out := &sim.Workload{Name: name}
	for _, w := range ws {
		out.Streams = append(out.Streams, w.Streams...)
	}
	return out
}

// loopOrder emulates the node compiler's cache-oriented loop permutation
// (Section 6.1: original and optimized codes are both compiled "with the
// highest level of optimization, enabling … loop permutation"): it returns
// the nest's loop indices with the loop whose unit step moves the smallest
// distance in the (layout-mapped) address space placed innermost. Both the
// baseline and the optimized trace therefore enjoy the best loop order for
// their own layout, so the two runs differ in where misses go, not in how
// often they miss — matching the paper's <1% LLC-miss impact.
//
// Candidates are filtered for legality: the moved loop's variable must not
// appear in another loop's bounds, and the permutation must preserve every
// data dependence (checked with internal/deps).
func loopOrder(pl *nestPlan, coord linalg.Vec) []int {
	cn := pl.nest
	nest := cn.Nest
	m := nest.Depth()
	order := make([]int, 0, m)
	// Representative iteration: the midpoint of each loop's bounds under
	// an all-midpoint environment (evaluated outside-in).
	iv := make([]int64, m)
	for li := range nest.Loops {
		lo, hi := cn.Bounds(li, iv)
		iv[li] = (lo + hi) / 2
	}
	best, bestCost := m-1, int64(-1)
	for li := m - 1; li >= 0; li-- {
		v := nest.Loops[li].Var
		// Legality, part 1: a loop may move innermost only if no other
		// loop's bounds reference its variable (e.g. hpccg's nonzero loop
		// runs 8·row .. 8·row+8 — row must stay outside it).
		legal := true
		for lj, other := range nest.Loops {
			if lj == li {
				continue
			}
			if other.Lower.Coeff(v) != 0 || other.Upper.Coeff(v) != 0 {
				legal = false
				break
			}
		}
		if !legal {
			continue
		}
		// Legality, part 2: the permutation must preserve every data
		// dependence of the nest (loop permutation, unlike the data
		// transformation itself, is constrained by dependences).
		if li != m-1 && !deps.InnermostLegal(nest, li) {
			continue
		}
		var cost int64
		for _, r := range pl.refs {
			base := r.layout.Offset(r.ref.Coord(iv, coord))
			iv[li]++
			next := r.layout.Offset(r.ref.Coord(iv, coord))
			iv[li]--
			d := next - base
			if d < 0 {
				d = -d
			}
			cost += d
		}
		if bestCost == -1 || cost < bestCost {
			best, bestCost = li, cost
		}
	}
	for li := 0; li < m; li++ {
		if li != best {
			order = append(order, li)
		}
	}
	return append(order, best)
}
