package check

import (
	"offchip/internal/dram"
	"offchip/internal/mem"
	"offchip/internal/mesh"
	"offchip/internal/probe"
)

// The Checker consumes the simulator's probe stream (probe.Probe). An
// access may revisit a stage kind (the shared-L2 flow crosses the NoC twice
// on the way back), so the causality probe enforces only that the reported
// times never rewind — the issue ≤ L1 ≤ L2 ≤ NoC ≤ DRAM ordering each flow
// implies.

// Begin registers access id, issued at time t.
func (c *Checker) Begin(id int64, core int, t int64) {
	c.inflight[id] = stageRec{stage: "issue", t: t}
	c.started++
}

// Stage checks one stage report: causality for stages of an access, route
// and zero-load latency for every NoC message, address-map agreement on
// submission to a controller, and the service-time and starvation bounds on
// every controller completion.
func (c *Checker) Stage(id int64, s probe.Stage) {
	if id != 0 {
		c.causal(id, s)
	}
	switch {
	case s.Kind.Transit():
		c.transit(s.From, s.To, s.Depart, s.T, s.Hops)
		if s.Stale {
			c.Report("directory", "owner at %v recorded as sharer of line %#x but its L2 does not hold it",
				s.To, s.Addr)
		}
	case s.Kind == probe.DRAMSubmit:
		c.dramEnq++
		c.addrOwner(s.Addr, s.MC, s.Local)
	case s.Kind == probe.DRAMDone:
		c.serve(s.MC, s.Service, s.T)
	}
}

// causal records that access id reached stage s, failing the causality
// probe if s precedes the access's previous stage.
func (c *Checker) causal(id int64, s probe.Stage) {
	rec, ok := c.inflight[id]
	if !ok {
		c.Report("causality", "stage %v reported for unknown access %d", s.Kind, id)
		return
	}
	if s.T < rec.t {
		c.Report("causality", "access %d: %v at t=%d precedes %s at t=%d",
			id, s.Kind, s.T, rec.stage, rec.t)
	}
	c.inflight[id] = stageRec{stage: s.Kind.String(), t: s.T}
}

// End retires the access at time t. Every started access must be ended
// exactly once; Finish flags leftovers.
func (c *Checker) End(id int64, t int64) {
	rec, ok := c.inflight[id]
	if !ok {
		c.Report("causality", "access %d retired twice (or never started)", id)
		return
	}
	if t < rec.t {
		c.Report("causality", "access %d: retire at t=%d precedes %s at t=%d",
			id, t, rec.stage, rec.t)
	}
	delete(c.inflight, id)
	c.completed++
}

// Migrate verifies that the committed remap left the application's page
// table a bijection.
func (c *Checker) Migrate(m probe.Migration) {
	if err := m.Space.VerifyBijection(); err != nil {
		c.Report("migration", "after remap of app %d vpage %d (+%d pages) MC %d→%d: %v",
			m.App, m.VPage, m.Pages-1, m.From, m.To, err)
	}
}

// EngineTick is the engine.Sim.OnDispatch hook: dispatched event times must
// be monotone non-decreasing, the total (time, seq) order the determinism
// guarantees rest on.
func (c *Checker) EngineTick(now int64) {
	if now < c.lastTick {
		c.Report("engine", "clock rewound: dispatched t=%d after t=%d", now, c.lastTick)
	}
	c.lastTick = now
}

// transit checks one message: it must follow a minimal XY route (hops ==
// Manhattan distance, ≤ the mesh diameter) and take at least the
// closed-form zero-load latency — exactly that latency when contention
// modeling is off.
func (c *Checker) transit(src, dst mesh.Node, depart, arrive int64, hops int) {
	if d := mesh.Dist(src, dst); hops != d {
		c.Report("xy-route", "%v->%v took %d hops, Manhattan distance is %d", src, dst, hops, d)
	}
	if c.p.MeshX > 0 && hops > c.diam {
		c.Report("hop-bound", "%v->%v took %d hops, mesh diameter is %d", src, dst, hops, c.diam)
	}
	lat, zero := arrive-depart, NoCZeroLoad(c.p.NoC, hops)
	if lat < zero {
		c.Report("zero-load", "%v->%v latency %d below zero-load bound %d", src, dst, lat, zero)
	}
	if !c.p.NoC.Contention && lat != zero {
		c.Report("zero-load", "%v->%v latency %d on ideal network, want exactly %d", src, dst, lat, zero)
	}
	c.nocMsgs++
}

// serve checks one controller completion: service must start no earlier
// than arrival, last exactly one of the three configured access times, and
// never follow more than StarveLimit bypasses by younger row hits — the
// FR-FCFS starvation bound the bounded-bypass scheduler enforces.
func (c *Checker) serve(mc int, s dram.Service, finish int64) {
	if s.Start < s.Arrive {
		c.Report("dram", "mc%d bank %d served a request %d cycles before it arrived",
			mc, s.Bank, s.Arrive-s.Start)
	}
	if d := finish - s.Start; c.p.DRAM.TRowHit > 0 &&
		d != c.p.DRAM.TRowHit && d != c.p.DRAM.TRowMiss && d != c.p.DRAM.TRowConflict {
		c.Report("dram", "mc%d bank %d service time %d matches no configured access time", mc, s.Bank, d)
	}
	if s.Bypassed > c.starve {
		c.Report("starvation", "mc%d bank %d request bypassed %d times, bound is %d",
			mc, s.Bank, s.Bypassed, c.starve)
	}
	if s.Bypassed > c.MaxBypass {
		c.MaxBypass = s.Bypassed
	}
	c.dramServed++
}

// addrOwner verifies the simulator's controller routing for one physical
// address against the address-map functions: mem.MCOf must agree on the
// owning controller, mem.LocalAddr on the dense per-controller address, and
// the (controller, local) pair must invert back to the same physical
// address — the bijection DRAM row-locality modeling depends on.
func (c *Checker) addrOwner(paddr int64, mc int, local int64) {
	cfg := c.p.Mem
	if cfg.NumMCs <= 0 {
		return
	}
	if want := mem.MCOf(paddr, cfg); mc != want {
		c.Report("addr-map", "paddr %#x routed to mc%d, MCOf says mc%d", paddr, mc, want)
	}
	if want := mem.LocalAddr(paddr, cfg); local != want {
		c.Report("addr-map", "paddr %#x submitted as local %#x, LocalAddr says %#x", paddr, local, want)
	}
	unit := interleaveUnit(cfg)
	stripe := unit * int64(cfg.NumMCs)
	if back := (local/unit)*stripe + int64(mc)*unit + local%unit; back != paddr {
		c.Report("addr-map", "(mc%d, local %#x) inverts to paddr %#x, want %#x", mc, local, back, paddr)
	}
}
