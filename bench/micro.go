package main

import (
	"flag"
	"fmt"
	"testing"

	"offchip/internal/approx"
	"offchip/internal/cache"
	"offchip/internal/dram"
	"offchip/internal/engine"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/mesh"
	"offchip/internal/noc"
	"offchip/internal/sim"
	"offchip/internal/trace"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// microBenchtime bounds each microbenchmark so the set stays a few
// seconds of a traced run. The self-test runs each benchmark once.
var microBenchtime = "150ms"

// recordLen is how many references of the recorded stream the per-access
// microbenchmarks replay.
const recordLen = 1 << 16

// ref is one recorded reference of apsi's page-interleaved baseline trace,
// in the round-robin order the cores issue them, with the physical address
// and controller the address space gave it.
type ref struct {
	vaddr, paddr, local int64
	core, mc            int
	desired             int
}

// microInputs is what every microbenchmark replays: apsi's generated trace
// and the stream recorded from it.
type microInputs struct {
	m      layout.Machine
	cm     *layout.ClusterMapping
	prog   *ir.Program
	store  *ir.DataStore
	res    *layout.Result
	w      *sim.Workload
	refs   []ref
	memCfg mem.Config
	pages  []int64 // distinct virtual pages of refs, in first-touch order
}

func newMicroInputs() (*microInputs, error) {
	in := &microInputs{m: layout.Default8x8()}
	in.m.Interleave = layout.PageInterleave
	var err error
	if in.cm, err = layout.MappingM1(in.m, layout.PlacementCorners(in.m.MeshX, in.m.MeshY)); err != nil {
		return nil, err
	}
	app, _ := workloads.ByName("apsi")
	if in.prog, in.store, err = app.Load(); err != nil {
		return nil, err
	}
	in.res = &layout.Result{Program: in.prog, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	if in.w, err = trace.Generate(in.prog, in.res, in.m, in.store, trace.Options{MaxAccessesPerThread: trace.Unlimited}); err != nil {
		return nil, err
	}
	in.memCfg = mem.Config{PageBytes: in.m.PageBytes, LineBytes: in.m.LineBytes, NumMCs: in.m.NumMCs, Interleave: in.m.Interleave}
	as := mem.NewAddressSpace(in.memCfg, 0, mem.NewInterleavedPolicy(in.m.NumMCs))
	seen := map[int64]bool{}
	for k := 0; len(in.refs) < recordLen; k++ {
		progressed := false
		for _, st := range in.w.Streams {
			if k >= len(st.Accesses) || len(in.refs) == recordLen {
				continue
			}
			progressed = true
			a := st.Accesses[k]
			r := ref{vaddr: a.VAddr, core: st.Core, desired: int(a.DesiredMC)}
			r.paddr = as.Translate(a.VAddr, st.Core, r.desired)
			r.mc = mem.MCOf(r.paddr, in.memCfg)
			r.local = mem.LocalAddr(r.paddr, in.memCfg)
			in.refs = append(in.refs, r)
			if vp := a.VAddr / in.m.PageBytes; !seen[vp] {
				seen[vp] = true
				in.pages = append(in.pages, vp)
			}
		}
		if !progressed {
			break
		}
	}
	return in, nil
}

// micro is one microbenchmark: its name, the unit of work it reports per,
// and how many units one benchmark iteration performs.
type micro struct {
	name  string
	per   string  // unit of work: op, access, solve
	scale float64 // units of work per benchmark iteration
	ms    bool    // report milliseconds instead of nanoseconds
	fn    func(b *testing.B)
}

// Sinks keep the benchmarked calls' results live; typed so that storing
// them does not allocate.
var (
	sinkInt      int
	sinkI64      int64
	sinkBytes    []byte
	sinkWorkload *sim.Workload
	sinkLayout   *layout.Result
)

// runMicro runs the layer microbenchmarks with testing.Benchmark and
// returns ns (or ms) and allocations per unit of work for each.
func runMicro() (map[string]metric, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		return nil, err
	}
	in, err := newMicroInputs()
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, mb := range in.benchmarks() {
		r := testing.Benchmark(mb.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("microbenchmark %s did not run", mb.name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N) / mb.scale
		unit := "ns/" + mb.per
		if mb.ms {
			ns, unit = ns/1e6, "ms/"+mb.per
		}
		out["micro."+mb.name+".time"] = metric{ns, unit}
		out["micro."+mb.name+".allocs"] = metric{float64(r.MemAllocs) / float64(r.N) / mb.scale, "allocs/" + mb.per}
	}
	return out, nil
}

// hopper is a self-rescheduling typed event whose delays replay the
// recorded stream: the steady-state shape of the simulator's event loop.
type hopper struct {
	s         *engine.Sim
	refs      []ref
	i         int
	remaining int
}

func (h *hopper) Handle(now int64) {
	if h.remaining > 0 {
		h.remaining--
		h.i = (h.i + 1) % len(h.refs)
		h.s.Schedule(now+1+h.refs[h.i].local%199, h)
	}
}

// done counts DRAM completions.
type done struct{ n int64 }

func (d *done) MemDone(int64) { d.n++ }

func (in *microInputs) benchmarks() []micro {
	refs := in.refs
	n := len(refs)
	accesses := float64(in.w.TotalAccesses())
	place := in.cm.Placement
	return []micro{
		{name: "engine_dispatch", per: "op", scale: 1, fn: func(b *testing.B) {
			var s engine.Sim
			hs := make([]*hopper, in.m.Cores())
			for i := range hs {
				hs[i] = &hopper{s: &s, refs: refs, i: i * 997}
			}
			run := func(events int) {
				for _, h := range hs {
					h.remaining = events / len(hs)
					s.Schedule(s.Now()+1, h)
				}
				s.Run()
			}
			run(4 * len(hs))
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		}},
		{name: "noc_transit", per: "op", scale: 1, fn: func(b *testing.B) {
			net := noc.New(noc.DefaultConfig(in.m.MeshX, in.m.MeshY))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[i%n]
				// Four messages inject per cycle, so links contend.
				net.Transit(int64(i/4), mesh.CoordOf(r.core, in.m.MeshX), place.NodeOf(r.mc), noc.OffChip)
			}
		}},
		{name: "cache_access", per: "op", scale: 1, fn: func(b *testing.B) {
			c := cache.New(8<<10, in.m.LineBytes, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(refs[i%n].paddr)
			}
		}},
		{name: "directory", per: "op", scale: 1, fn: func(b *testing.B) {
			// One op is a miss's directory work: find the nearest sharer,
			// add the requester, and drop the line an L2 evicted long ago.
			d := cache.NewDirectory()
			const resident = 4096
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[i%n]
				line := r.paddr - r.paddr%in.m.LineBytes
				sinkInt = d.Owner(line, r.core, in.m.MeshX)
				d.Add(line, r.core)
				if i >= resident {
					old := refs[(i-resident)%n]
					d.Remove(old.paddr-old.paddr%in.m.LineBytes, old.core)
				}
			}
		}},
		{name: "dram_submit", per: "op", scale: 1, fn: func(b *testing.B) {
			var s engine.Sim
			cfg := dram.DefaultConfig()
			cfg.RowBytes = 1 << 10
			ctl := dram.New(0, cfg, &s, nil)
			var d done
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctl.SubmitTo(refs[i%n].local, &d)
				if i%16 == 15 {
					s.Run()
				}
			}
			s.Run()
		}},
		{name: "mem_translate", per: "op", scale: 1, fn: func(b *testing.B) {
			as := mem.NewAddressSpace(in.memCfg, 0, mem.NewInterleavedPolicy(in.m.NumMCs))
			for _, r := range refs {
				as.Translate(r.vaddr, r.core, r.desired)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[i%n]
				sinkI64 = as.Translate(r.vaddr, r.core, r.desired)
			}
		}},
		{name: "mem_remap", per: "op", scale: 1, fn: func(b *testing.B) {
			as := mem.NewAddressSpace(in.memCfg, 0, mem.NewInterleavedPolicy(in.m.NumMCs))
			for _, r := range refs {
				as.Translate(r.vaddr, r.core, r.desired)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vp := in.pages[i%len(in.pages)]
				from, _ := as.PageMC(vp)
				as.Remap(vp, (from+1)%in.m.NumMCs)
			}
		}},
		{name: "migrator", per: "op", scale: 1, fn: func(b *testing.B) {
			// One op is one Touch; a window closes (Roll) every 4096 touches.
			g := mem.NewMigrator(mem.DefaultMigrationSpec(), in.m.Cores(),
				func(core int) int { return place.NearestMC(mesh.CoordOf(core, in.m.MeshX)) },
				func(core, mc int) int { return place.Dist(mesh.CoordOf(core, in.m.MeshX), mc) })
			home := func(p mem.PageID) int { return int(p.VPage % int64(in.m.NumMCs)) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[i%n]
				g.Touch(mem.PageID{VPage: r.vaddr / in.m.PageBytes}, r.core)
				if i%4096 == 4095 {
					for _, mg := range g.Roll(home) {
						g.Completed(mg.Page)
					}
				}
			}
		}},
		{name: "tracegen", per: "access", scale: accesses, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := trace.Generate(in.prog, in.res, in.m, in.store, trace.Options{MaxAccessesPerThread: trace.Unlimited})
				if err != nil {
					b.Fatal(err)
				}
				sinkWorkload = w
			}
		}},
		{name: "trace_encode", per: "access", scale: accesses, fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBytes = tracecache.Encode(in.w, 1)
			}
		}},
		{name: "trace_decode", per: "access", scale: accesses, fn: func(b *testing.B) {
			blob := tracecache.Encode(in.w, 1)
			var d tracecache.Decoder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := d.Decode(blob, 1)
				if err != nil {
					b.Fatal(err)
				}
				sinkWorkload = w
			}
		}},
		{name: "layout_solve", per: "solve", scale: 1, ms: true, fn: func(b *testing.B) {
			line := layout.Default8x8()
			cm, err := layout.MappingM1(line, layout.PlacementCorners(line.MeshX, line.MeshY))
			if err != nil {
				b.Fatal(err)
			}
			app, _ := workloads.ByName("apsi")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Each solve gets a freshly loaded program, as core.Workloads does.
				b.StopTimer()
				p, store, err := app.Load()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := layout.Optimize(p, line, cm, &layout.Options{Approx: approx.NewProfiler(store)})
				if err != nil {
					b.Fatal(err)
				}
				sinkLayout = res
			}
		}},
	}
}
