package layout

import (
	"fmt"

	"offchip/internal/linalg"
)

// Run is Offset and DesiredMC in run form: it walks the byte offsets and
// desired controllers an affine reference touches across consecutive
// iterations of an innermost loop, along which the reference's coordinate
// advances by a fixed step. While the coordinate needs no clamping — it
// stays inside the array, and for a customized layout inside the
// transformed data space and one thread's block of partition rows — the
// element position is affine in the iteration. A Run then steps the
// position as mixed-radix digits (round, unit within the grain, element
// within the unit), so no access divides. Iterations whose coordinate
// clamps go through Offset and DesiredMC one at a time. A Run is reused
// from run to run and is not safe for concurrent use.
type Run struct {
	al    *ArrayLayout
	step  linalg.Vec // coordinate delta per iteration
	coord linalg.Vec // coordinate at iteration at
	t, dt []int64    // transformed coordinate at iteration at, and its step
	n, at int64      // the run's length, and the iteration coord is at

	// fast and slow count the iterations left in the current stretch,
	// stepped or clamped; stretch is the stepped stretch's length, by which
	// coord catches up when it ends.
	fast, stretch, slow int64

	// The stepped element position: q rounds of groups·grain elements,
	// then j units and u elements into the group's grain, advancing by
	// (dq, dj, du) per iteration with carries at unit and radix. An
	// identity layout is one digit, q, the row-major element index.
	q, j, u          int64
	dq, dj, du       int64
	unit, radix      int64
	qBytes, jBytes   int64 // byte weights of q and j; u weighs elem
	elem, groupBytes int64 // element size; the group's byte offset in a round
	mcBase           int   // desired controller at j = 0
}

// NewRun returns a Run over this layout for a reference whose coordinate
// moves by step (copied; one entry per array dimension) per iteration.
func (al *ArrayLayout) NewRun(step linalg.Vec) *Run {
	n := al.Array.NumDims()
	if len(step) != n {
		panic(fmt.Sprintf("layout: step arity %d for %d-dimensional array %s", len(step), n, al.Array.Name))
	}
	buf := make([]int64, 4*n)
	r := &Run{al: al, step: buf[:n:n], coord: buf[n : 2*n : 2*n], elem: al.elemSize}
	copy(r.step, step)
	if !al.Optimized {
		r.unit, r.radix, r.qBytes, r.mcBase = 1, 1, al.elemSize, -1
		stride := int64(1)
		for d := n - 1; d >= 0; d-- {
			r.dq += step[d] * stride
			stride *= al.Array.Dims[d]
		}
		return r
	}
	r.t, r.dt = buf[2*n:3*n:3*n], buf[3*n:]
	for d, u := range al.uRows {
		for j, k := range u {
			r.dt[d] += k * step[j]
		}
	}
	dpos := r.dt[0] * al.rowSize
	for d := 1; d < n; d++ {
		dpos += r.dt[d] * al.strides[d-1]
	}
	r.unit, r.radix = al.unitElems, al.grain/al.unitElems
	r.qBytes = int64(al.groups) * al.grain * al.elemSize
	r.jBytes = al.unitElems * al.elemSize
	r.dq = linalg.FloorDiv(dpos, al.grain)
	dw := dpos - r.dq*al.grain
	r.dj, r.du = dw/al.unitElems, dw%al.unitElems
	return r
}

// Start begins a run of n iterations whose first coordinate is coord
// (copied).
func (r *Run) Start(coord linalg.Vec, n int64) {
	copy(r.coord, coord)
	r.n, r.at = n, 0
	r.fast, r.stretch, r.slow = 0, 0, 0
}

// Next returns Offset and DesiredMC at the current iteration's coordinate
// and moves to the next iteration. Each run takes exactly n calls.
func (r *Run) Next() (off int64, mc int) {
	if r.fast == 0 {
		return r.next()
	}
	r.fast--
	off = r.q*r.qBytes + r.groupBytes + r.j*r.jBytes + r.u*r.elem
	mc = r.mcBase + int(r.j)
	r.u += r.du
	r.j += r.dj
	if r.u >= r.unit {
		r.u -= r.unit
		r.j++
	}
	r.q += r.dq
	if r.j >= r.radix {
		r.j -= r.radix
		r.q++
	}
	return off, mc
}

// next ends a stepped stretch, plans the next one, or takes one clamped
// iteration through Offset and DesiredMC.
func (r *Run) next() (int64, int) {
	if r.stretch > 0 {
		r.advance(r.stretch)
		r.stretch = 0
	}
	if r.slow == 0 {
		r.plan()
		if r.fast > 0 {
			return r.Next()
		}
	}
	r.slow--
	off := r.al.Offset(r.coord)
	mc := r.al.DesiredMC(off)
	r.advance(1)
	return off, mc
}

// advance moves the coordinate k iterations on.
func (r *Run) advance(k int64) {
	for d, s := range r.step {
		r.coord[d] += k * s
	}
	r.at += k
}

// plan starts the stretch at iteration at: the iterations up to the next
// that needs no clamping are slow; from there, the iterations until the
// coordinate would clamp or change thread block are a stepped stretch, whose
// digits plan sets from the coordinate.
func (r *Run) plan() {
	al := r.al
	lo, hi := int64(0), r.n-r.at
	if !al.Optimized {
		for d, c := range r.coord {
			lo, hi = inside(c, r.step[d], 0, al.Array.Dims[d], lo, hi)
		}
	} else {
		for d := range al.uRows {
			r.t[d] = al.transformed(d, r.coord)
			lo, hi = inside(r.t[d], r.dt[d], 0, al.newDims[d], lo, hi)
		}
		if lo < hi {
			// The rows of one thread's block belong to one group and
			// hold consecutive ranks in it, so the position stays affine.
			blk := (r.t[0] + lo*r.dt[0]) / al.b * al.b
			lo, hi = inside(r.t[0], r.dt[0], blk, blk+al.b, lo, hi)
		}
	}
	switch {
	case lo >= hi:
		r.slow = r.n - r.at
		return
	case lo > 0:
		r.slow = lo
		return
	}
	r.fast, r.stretch = hi, hi
	if !al.Optimized {
		r.q = al.Array.LinearIndex(r.coord)
		return
	}
	row := r.t[0]
	pos := al.rowRank[row] * al.rowSize
	for d := 1; d < len(r.t); d++ {
		pos += r.t[d] * al.strides[d-1]
	}
	w := pos % al.grain
	r.q, r.j, r.u = pos/al.grain, w/al.unitElems, w%al.unitElems
	ord := int64(al.ordOfRow[row])
	r.groupBytes = ord * al.grain * al.elemSize
	if al.homeOf != nil {
		r.mcBase = int(ord % int64(al.numMCs))
	} else {
		r.mcBase = int(ord) * al.k
	}
}

// inside narrows [a, b) to the iterations s at which x0 + s·dx lies in
// [lo, hi); the result is empty when a ≥ b.
func inside(x0, dx, lo, hi, a, b int64) (int64, int64) {
	switch {
	case dx == 0:
		if x0 < lo || x0 >= hi {
			return a, a
		}
	case dx > 0:
		a = max(a, -linalg.FloorDiv(x0-lo, dx))
		b = min(b, -linalg.FloorDiv(x0-hi, dx))
	default:
		a = max(a, linalg.FloorDiv(x0-hi, -dx)+1)
		b = min(b, linalg.FloorDiv(x0-lo, -dx)+1)
	}
	return a, b
}
