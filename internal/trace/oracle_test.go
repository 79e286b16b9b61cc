package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"offchip/internal/approx"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/linalg"
	"offchip/internal/sim"
)

// oracleGenerate is the per-iteration generator that Generate's run path
// replaced, kept as the oracle of the differential test below. It walks
// each thread's chunk one iteration at a time (oracleWalk) and evaluates
// every access through Coord, Offset and DesiredMC. It also counts the
// cases it met.
func oracleGenerate(p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt Options) (*sim.Workload, oracleCounts, error) {
	cores := m.Cores()
	threads := opt.Threads
	if threads <= 0 {
		threads = cores
	}
	maxAcc := opt.MaxAccessesPerThread
	if maxAcc <= 0 {
		maxAcc = 1 << 62
	}
	bases, err := PlaceArrays(p, res, m)
	if err != nil {
		return nil, oracleCounts{}, err
	}
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
		plans[ni].order = loopOrder(&plans[ni], coord)
	}
	w := &sim.Workload{Name: p.Name}
	var n oracleCounts
	for t := 0; t < threads; t++ {
		stream := sim.Stream{Core: t % cores}
		budget := maxAcc
		for ni := range plans {
			pl := &plans[ni]
			stream.Phases = append(stream.Phases, len(stream.Accesses))
			if budget <= 0 {
				continue
			}
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
			totalIters := pl.trip / int64(threads)
			if totalIters == 0 {
				totalIters = 1
			}
			stride := int64(1)
			if totalIters > int64(iterBudget) {
				stride = totalIters / int64(iterBudget)
			}
			var k int64
			done := oracleWalk(pl.nest, pl.order, t, threads, func(iv []int64) bool {
				if k%stride != 0 {
					k++
					return true
				}
				k++
				for i := range pl.refs {
					if len(stream.Accesses) >= maxAcc {
						return false
					}
					r := &pl.refs[i]
					off := r.layout.Offset(r.ref.Coord(iv, coord))
					stream.Accesses = append(stream.Accesses, sim.Access{
						VAddr:     r.base + off,
						DesiredMC: int8(r.layout.DesiredMC(off)),
					})
				}
				return len(stream.Accesses) < maxAcc
			})
			if stride > 1 {
				n.strided++
			} else if !done {
				n.cut++
			}
			budget = maxAcc - len(stream.Accesses)
		}
		w.Streams = append(w.Streams, stream)
	}
	return w, n, nil
}

// oracleCounts counts the (thread, nest) walks of oracleGenerate that
// sampled with a stride above 1, and those at stride 1 that the budget
// stopped.
type oracleCounts struct {
	strided, cut int
}

// oracleWalk is the walker before runs: it yields every iteration of
// thread t's chunk one at a time, evaluating each loop's bounds, and the
// parallel loop's chunk, whenever it enters the loop.
func oracleWalk(cn *ir.CompiledNest, order []int, t, nthreads int, yield func(iv []int64) bool) bool {
	iv := make([]int64, len(order))
	var walk func(d int) bool
	walk = func(d int) bool {
		if d == len(order) {
			return yield(iv)
		}
		li := order[d]
		lo, hi := cn.Bounds(li, iv)
		if li == cn.Nest.ParDepth {
			lo, hi = ir.ThreadChunk(lo, hi, t, nthreads)
		}
		for v := lo; v < hi; v++ {
			iv[li] = v
			if !walk(d + 1) {
				return false
			}
		}
		iv[li] = 0
		return true
	}
	return walk(0)
}

// randomProgram builds a program of one or two nests over small arrays:
// one to three loops each, with constant or outer-dependent bounds and the
// parallel loop at any depth; subscripts with coefficients in −2..2 and
// offsets that carry them past the arrays' edges; and, in some nests, a
// subscript read through an index array whose contents also leave the
// array.
func randomProgram(rng *rand.Rand, name string) (*ir.Program, *ir.DataStore) {
	p := &ir.Program{Name: name}
	for a := 0; a < 1+rng.Intn(3); a++ {
		arr := &ir.Array{Name: fmt.Sprintf("A%d", a), ElemSize: []int64{4, 8}[rng.Intn(2)]}
		for d := 0; d < 1+rng.Intn(3); d++ {
			arr.Dims = append(arr.Dims, int64(2+rng.Intn(40)))
		}
		p.Arrays = append(p.Arrays, arr)
	}
	data := p.Arrays
	idx := &ir.Array{Name: "idx", Dims: []int64{int64(4 + rng.Intn(60))}, ElemSize: 4}
	p.Arrays = append(p.Arrays, idx)
	store := ir.NewDataStore()
	contents := make([]int64, idx.Dims[0])
	for i := range contents {
		contents[i] = int64(rng.Intn(48) - 4)
	}
	store.SetContents(idx, contents)

	vars := []string{"i", "j", "k"}
	affine := func(depth int, span int64) ir.LinExpr {
		e := ir.ConstExpr(int64(rng.Intn(int(span)+6)) - 3)
		for _, v := range vars[:depth] {
			if k := int64(rng.Intn(5) - 2); k != 0 {
				e = e.Plus(ir.Term(k, v, 0))
			}
		}
		return e
	}
	for n := 0; n < 1+rng.Intn(2); n++ {
		depth := 1 + rng.Intn(3)
		nest := &ir.LoopNest{ParDepth: rng.Intn(depth)}
		for li := 0; li < depth; li++ {
			lo := ir.ConstExpr(int64(rng.Intn(4)))
			if li > 0 && rng.Intn(3) == 0 {
				lo = lo.Plus(ir.Term(int64(rng.Intn(2)+1), vars[rng.Intn(li)], 0))
			}
			hi := lo.Plus(ir.ConstExpr(int64(1 + rng.Intn(30))))
			if li > 0 && rng.Intn(3) == 0 {
				hi = hi.Plus(ir.VarExpr(vars[rng.Intn(li)]))
			}
			nest.Loops = append(nest.Loops, ir.Loop{Var: vars[li], Lower: lo, Upper: hi})
		}
		indexed := rng.Intn(3) == 0
		ref := func() *ir.Ref {
			arr := data[rng.Intn(len(data))]
			r := &ir.Ref{Array: arr}
			for d, ext := range arr.Dims {
				r.Subs = append(r.Subs, affine(depth, ext))
				if indexed && d == 0 && rng.Intn(2) == 0 {
					r.Subs[d] = ir.ConstExpr(0)
					r.IndexSubs = map[int]*ir.IndexSub{d: {IndexArray: idx, Inner: affine(depth, idx.Dims[0])}}
				}
			}
			return r
		}
		for s := 0; s < 1+rng.Intn(2); s++ {
			st := &ir.Statement{Write: ref()}
			for r := 0; r < rng.Intn(3); r++ {
				st.Reads = append(st.Reads, ref())
			}
			nest.Body = append(nest.Body, st)
		}
		p.Nests = append(p.Nests, nest)
	}
	return p, store
}

// TestGenerateMatchesOracle holds Generate's run path to the per-iteration
// generator it replaced, stream for stream — core, app ID, phase markers,
// and every access's virtual address and desired controller — over random
// programs, identity and customized layouts (private L2 with one or two
// controllers per cluster, line and page interleaving, shared L2), 1, 63,
// 64 and 128 threads, and caps that force a sampling stride or cut a run
// short.
func TestGenerateMatchesOracle(t *testing.T) {
	type machine struct {
		name    string
		m       layout.Machine
		mapping func(layout.Machine, *layout.MCPlacement) (*layout.ClusterMapping, error)
	}
	var machines []machine
	for _, c := range []struct {
		name    string
		l2      layout.CacheKind
		gran    layout.Granularity
		mapping func(layout.Machine, *layout.MCPlacement) (*layout.ClusterMapping, error)
	}{
		{"private/line/M1", layout.PrivateL2, layout.LineInterleave, layout.MappingM1},
		{"private/line/M2", layout.PrivateL2, layout.LineInterleave, layout.MappingM2},
		{"private/page/M1", layout.PrivateL2, layout.PageInterleave, layout.MappingM1},
		{"shared/line/M1", layout.SharedL2, layout.LineInterleave, layout.MappingM1},
	} {
		m := layout.Default8x8()
		m.L2, m.Interleave = c.l2, c.gran
		machines = append(machines, machine{c.name, m, c.mapping})
	}

	rng := rand.New(rand.NewSource(19))
	var optimized int
	var counts oracleCounts
	var cov progCoverage
	for trial := 0; trial < 80; trial++ {
		p, store := randomProgram(rng, fmt.Sprintf("r%d", trial))
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mc := machines[trial%len(machines)]
		cm, err := mc.mapping(mc.m, layout.PlacementCorners(mc.m.MeshX, mc.m.MeshY))
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 63, 64, 128} {
			res, err := layout.Optimize(p, mc.m, cm, &layout.Options{Threads: threads, Approx: approx.NewProfiler(store)})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			optimized += res.ArraysOptimized
			identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
			for _, l := range []*layout.Result{identity, res} {
				for _, limit := range []int{Unlimited, 40, 1 + rng.Intn(12)} {
					opt := Options{Threads: threads, MaxAccessesPerThread: limit}
					got, err := Generate(p, l, mc.m, store, opt)
					if err != nil {
						t.Fatal(err)
					}
					want, n, err := oracleGenerate(p, l, mc.m, store, opt)
					if err != nil {
						t.Fatal(err)
					}
					counts.strided += n.strided
					counts.cut += n.cut
					tag := fmt.Sprintf("trial %d (%s, %d threads, optimized=%v, cap %d)", trial, mc.name, threads, l == res, limit)
					sameWorkload(t, tag, got, want)
				}
			}
		}
		cov.add(p, store)
	}
	t.Logf("coverage: %d optimized arrays, %d strided and %d budget-cut walks, %d indexed nests, parallel loop at order depth 0/1/2: %v, %d runs clamping mid-run",
		optimized, counts.strided, counts.cut, cov.indexed, cov.parAt, cov.midRunClamp)
	if optimized == 0 || counts.strided == 0 || counts.cut == 0 || cov.indexed == 0 || slices.Contains(cov.parAt[:], 0) || cov.midRunClamp == 0 {
		t.Fatal("the random programs missed a case the test must cover")
	}
}

// sameWorkload fails the test at the first difference between two
// workloads in anything the simulator reads.
func sameWorkload(t *testing.T, tag string, got, want *sim.Workload) {
	t.Helper()
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("%s: %d streams, oracle %d", tag, len(got.Streams), len(want.Streams))
	}
	for s := range want.Streams {
		g, w := &got.Streams[s], &want.Streams[s]
		if g.Core != w.Core || g.AppID != w.AppID || fmt.Sprint(g.Phases) != fmt.Sprint(w.Phases) {
			t.Fatalf("%s stream %d: core %d app %d phases %v, oracle core %d app %d phases %v",
				tag, s, g.Core, g.AppID, g.Phases, w.Core, w.AppID, w.Phases)
		}
		if len(g.Accesses) != len(w.Accesses) {
			t.Fatalf("%s stream %d: %d accesses, oracle %d", tag, s, len(g.Accesses), len(w.Accesses))
		}
		for i := range w.Accesses {
			if g.Accesses[i] != w.Accesses[i] {
				t.Fatalf("%s stream %d access %d: %+v, oracle %+v", tag, s, i, g.Accesses[i], w.Accesses[i])
			}
		}
	}
}

// progCoverage counts the cases the random programs exercise: nests with
// an indexed reference, nests by the depth of the parallel loop in the
// chosen loop order, and runs in which an affine reference's coordinate
// crosses its array's edge (under identity layouts and 64 threads).
type progCoverage struct {
	indexed, midRunClamp int
	parAt                [3]int
}

func (c *progCoverage) add(p *ir.Program, store *ir.DataStore) {
	identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	coord := make(linalg.Vec, 3)
	for _, nest := range p.Nests {
		cn := nest.Compile(store)
		pl := &nestPlan{nest: cn}
		indexed := false
		for i := range cn.Refs {
			pl.refs = append(pl.refs, refPlan{ref: &cn.Refs[i], layout: identity.Layout(cn.Refs[i].Ref.Array)})
			indexed = indexed || cn.Refs[i].Ref.Indexed()
		}
		if indexed {
			c.indexed++
		}
		order := loopOrder(pl, coord)
		c.parAt[slices.Index(order, nest.ParDepth)]++
		inner := order[len(order)-1]
		for t := 0; t < 64; t++ {
			cn.Walk(order, t, 64, func(iv []int64, lo, hi int64) bool {
				for _, r := range cn.Refs {
					if r.Ref.Indexed() {
						continue
					}
					iv[inner] = lo
					first := inArray(r.Ref.Array, r.Coord(iv, coord))
					iv[inner] = hi - 1
					if inArray(r.Ref.Array, r.Coord(iv, coord)) != first {
						c.midRunClamp++
					}
				}
				return true
			})
		}
	}
}

func inArray(arr *ir.Array, c linalg.Vec) bool {
	for d, x := range c {
		if x < 0 || x >= arr.Dims[d] {
			return false
		}
	}
	return true
}
