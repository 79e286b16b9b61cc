package sim

import (
	"offchip/internal/engine"
	"offchip/internal/mem"
	"offchip/internal/mesh"
	"offchip/internal/noc"
	"offchip/internal/probe"
)

// migState drives online page migration inside one run: it feeds every timed
// access into the mem.Migrator decision engine, rolls windows lazily from
// the access stream (no engine events fire unless a migration actually
// triggers, which keeps a migration-free run bit-identical to one with the
// engine detached), and models each migration's cost — CopyFlits line-sized
// messages injected through the NoC from the old controller's node to the
// new one's, then a remap event at copy-finish time that atomically updates
// the page table and charges the TLB-shootdown stall to every core that
// touched the page in the triggering window.
type migState struct {
	m    *machine
	eng  *mem.Migrator
	spec mem.MigrationSpec

	copyFlits int   // resolved: spec value, or PageBytes/LineBytes
	windowEnd int64 // absolute cycle the open window closes at
	fed       bool  // the mig/* registry counters are registered
}

// nearestMCOf maps a core to the controller nearest its mesh node — the
// allocation target of FirstTouchNearestPolicy and the migration target of
// a page that core dominates.
func (m *machine) nearestMCOf(core int) int {
	return m.cfg.Mapping.Placement.NearestMC(mesh.CoordOf(core, m.cfg.Machine.MeshX))
}

// coreMCDist is the mesh hop distance from a core's node to a controller's
// node — the migration engine's profitability model.
func (m *machine) coreMCDist(core, mc int) int {
	return m.cfg.Mapping.Placement.Dist(mesh.CoordOf(core, m.cfg.Machine.MeshX), mc)
}

func newMigState(m *machine, spec mem.MigrationSpec) *migState {
	flits := spec.CopyFlits
	if flits == 0 {
		flits = int((m.memCfg.PageBytes + m.memCfg.LineBytes - 1) / m.memCfg.LineBytes)
	}
	return &migState{
		m:         m,
		eng:       mem.NewMigrator(spec, m.cfg.Machine.Cores(), m.nearestMCOf, m.coreMCDist),
		spec:      spec,
		copyFlits: flits,
		windowEnd: spec.WindowCycles,
	}
}

// touch records one timed access into the open window, first closing any
// windows the clock has passed. Rolling here — on the access stream, not on
// a periodic engine event — means a run whose threshold never fires
// processes exactly the same event sequence as one with migration disabled.
func (g *migState) touch(now int64, app int, vpage int64, core int) {
	if g.spec.WindowCycles > 0 {
		for now >= g.windowEnd {
			g.roll(now)
			g.windowEnd += g.spec.WindowCycles
		}
	}
	g.eng.Touch(mem.PageID{App: app, VPage: vpage}, core)
}

// roll closes the open window and launches the page copies it triggers.
func (g *migState) roll(now int64) {
	migs := g.eng.Roll(func(p mem.PageID) int {
		mc, _ := g.m.spaces[p.App].PageMC(p.VPage)
		return mc
	})
	for _, mg := range migs {
		g.launch(now, mg)
	}
}

// launch injects the page-copy traffic as real off-chip-class messages —
// they contend with demand traffic on the same links and appear in every
// NoC total — and schedules the remap to commit when the last flit lands.
// At cluster granularity (Migration.Pages > 1) every allocated member page
// not already homed on the target controller is copied from its own current
// home, and one remap event commits the whole cluster.
func (g *migState) launch(now int64, mg mem.Migration) {
	m := g.m
	sp := m.spaces[mg.Page.App]
	to := m.cfg.Mapping.Placement.NodeOf(mg.To)
	finish := now
	var pages []int64
	for v := mg.Page.VPage; v < mg.Page.VPage+int64(mg.Pages); v++ {
		mc, ok := sp.PageMC(v)
		if !ok || mc == mg.To {
			continue // untouched, or already home: nothing to move
		}
		pages = append(pages, v)
		from := m.cfg.Mapping.Placement.NodeOf(mc)
		for i := 0; i < g.copyFlits; i++ {
			t := m.transit(0, probe.Copy, now, from, to, noc.OffChip)
			if t > finish {
				finish = t
			}
		}
	}
	if len(pages) == 0 {
		// Every member already lives on the target (the base page moved
		// between decision and launch): nothing in flight, unfreeze now.
		g.eng.Completed(mg.Page)
		return
	}
	e := &remapEvent{g: g, mg: mg, pages: pages, start: now}
	e.Init(e)
	m.sim.ScheduleEvent(finish, &e.Event)
}

// remapEvent commits one migration: an engine event at copy-finish time.
// In-flight accesses translated before the commit keep their old physical
// address — the old frame is still consistent data, it merely stops being
// the page's home — so the remap is atomic and the address map is a
// bijection at every instant. A cluster commits as one unit: its member
// remaps apply back to back at the same instant, the sharers pay ONE
// shootdown for the whole cluster, and the probe stream reports the commit
// once, after the last member.
type remapEvent struct {
	engine.Event
	g     *migState
	mg    mem.Migration
	pages []int64 // member vpages to re-home (off-target at launch)
	start int64
}

// Handle implements engine.Handler.
func (e *remapEvent) Handle(now int64) {
	g, mg := e.g, e.mg
	m := g.m
	sp := m.spaces[mg.Page.App]
	remapped := 0
	for _, v := range e.pages {
		if _, ok := sp.Remap(v, mg.To); ok {
			remapped++
		}
	}
	if remapped > 0 {
		var stall int64
		for _, core := range mg.Sharers {
			cs := m.cores[core]
			if cs.nextFree < now {
				cs.nextFree = now
			}
			cs.nextFree += g.spec.ShootdownCycles
			stall += g.spec.ShootdownCycles
		}
		m.res.Migrations++
		m.res.MigCopyMsgs += int64(g.copyFlits * remapped)
		m.res.MigStallCycles += stall
		if p := m.probe; p != nil {
			p.Migrate(probe.Migration{App: mg.Page.App, VPage: mg.Page.VPage, Pages: remapped,
				From: mg.From, To: mg.To, Copy: now - e.start, Stall: stall, Space: sp})
		}
	}
	g.eng.Completed(mg.Page)
}
