// Package prof is the cycle-level latency-attribution profiler: it consumes
// the simulator's probe stream (internal/probe) — the same one the
// invariant checker reads, with per-transit hop counts and the controllers'
// queue/service split — and decomposes every access's end-to-end latency
// into exclusive per-stage components — L1 lookup, L2 lookup, NoC request
// traversal split into zero-load hops vs link queueing, directory lookup
// and forwarding, DRAM queue wait vs bank service, NoC reply traversal.
// The decomposition is conservative by construction: each hook attributes
// the cycles since the access's previous event to exactly one component,
// so the components of one access always sum to its probe-observed
// end-to-end latency (TestAttributionConservation and `make profile-smoke`
// enforce it).
//
// Aggregates land per (core, component) and per MC, with registry-backed
// latency histograms per stage (p50/p95/p99 via obs.Histogram.Quantile).
// TraceTo also writes every charge of the accesses it samples as a
// per-access Chrome trace (offchip -trace). A detached profiler
// (sim.Config.Prof == nil) costs nothing: the stream has one nil check per
// hook site whatever is attached.
package prof

import (
	"fmt"

	"offchip/internal/check"
	"offchip/internal/noc"
	"offchip/internal/obs"
	"offchip/internal/probe"
)

// Component is one exclusive slice of an access's end-to-end latency.
type Component int

const (
	CompL1 Component = iota
	CompL2
	CompNoCReqHops  // request traversal, zero-load portion
	CompNoCReqQueue // request traversal, link queueing above zero-load
	CompDirLookup
	CompFwdHops  // directory→owner forward, zero-load portion
	CompFwdQueue // directory→owner forward, link queueing
	CompDRAMQueue
	CompDRAMService
	CompNoCRespHops
	CompNoCRespQueue
	CompRetire // residual between the last attributed event and retirement

	NumComponents
)

// Stage groups components into the coarse pipeline stages the flamegraph
// and the differential table fold by.
var compStage = [NumComponents]string{
	CompL1:           "l1",
	CompL2:           "l2",
	CompNoCReqHops:   "noc-req",
	CompNoCReqQueue:  "noc-req",
	CompDirLookup:    "dir",
	CompFwdHops:      "dir",
	CompFwdQueue:     "dir",
	CompDRAMQueue:    "dram",
	CompDRAMService:  "dram",
	CompNoCRespHops:  "noc-resp",
	CompNoCRespQueue: "noc-resp",
	CompRetire:       "retire",
}

var compSub = [NumComponents]string{
	CompL1:           "lookup",
	CompL2:           "lookup",
	CompNoCReqHops:   "hops",
	CompNoCReqQueue:  "queueing",
	CompDirLookup:    "lookup",
	CompFwdHops:      "fwd-hops",
	CompFwdQueue:     "fwd-queueing",
	CompDRAMQueue:    "queue",
	CompDRAMService:  "service",
	CompNoCRespHops:  "hops",
	CompNoCRespQueue: "queueing",
	CompRetire:       "residual",
}

// Stage returns the component's coarse pipeline stage ("l1", "noc-req", …).
func (c Component) Stage() string { return compStage[c] }

// Sub returns the component's substage within its stage ("hops", "queue", …).
func (c Component) Sub() string { return compSub[c] }

func (c Component) String() string { return compStage[c] + ";" + compSub[c] }

// StageNames lists the coarse stages in pipeline order — the grouping
// every per-stage histogram and table iterates in. "migration" is the one
// stage outside the per-access pipeline: online page migration's copy+stall
// overhead, observed per committed migration rather than per access, so it
// sits outside the Attributed()==EndToEnd conservation identity.
var StageNames = []string{"l1", "l2", "noc-req", "dir", "dram", "noc-resp", "retire", "migration"}

var stageIndex = func() map[string]int {
	m := make(map[string]int, len(StageNames))
	for i, s := range StageNames {
		m[s] = i
	}
	return m
}()

// Params binds a profiler to one simulated machine.
type Params struct {
	Cores int
	MCs   int
	// NoC supplies the hop cost the zero-load/queueing split is computed
	// against (check.NoCZeroLoad — the same oracle the checker enforces).
	NoC noc.Config
	// Obs hosts the per-stage and end-to-end latency histograms. Nil gets
	// the profiler a private registry.
	Obs *obs.Observer
}

// accessRec tracks one in-flight access: its issuing core, issue time, and
// the time of its last attributed event (the exclusive-attribution cursor).
type accessRec struct {
	core  int
	start int64
	last  int64
}

// Profiler decomposes per-access latency. It is bound to one run at a time
// (Bind resets all state) and is not safe for concurrent runs — give each
// simulation its own, exactly like check.Checker.
type Profiler struct {
	p      Params
	perHop int64 // zero-load cycles per hop

	inflight map[int64]accessRec

	// Aggregates, plain int64 on the hot path; published to the registry
	// by FinishRun.
	comp      [NumComponents]int64
	perCore   [][NumComponents]int64
	mcQueue   []int64
	mcService []int64
	accesses  int64
	endToEnd  int64
	// Migration overhead: cycles outside the per-access pipeline (copy
	// transit + TLB-shootdown stalls), counted per committed migration.
	migrations int64
	migCycles  int64

	endHist    *obs.Histogram
	stageHists []*obs.Histogram // indexed like StageNames

	obs        *obs.Observer
	violations []string

	trace *chrome // nil unless TraceTo was called
}

// New returns an unbound profiler; sim.Run binds it via Config.Prof.
func New() *Profiler { return &Profiler{} }

// histBounds is the geometric latency ladder every profiler histogram
// uses: 1..2^19 cycles, overflow above. Shared bounds keep profiles
// addable: Profile.Add absorbs histograms, which requires equal bounds.
func histBounds() []int64 { return obs.ExponentialBuckets(1, 2, 20) }

// Bind resets the profiler and attaches it to a machine. sim.Run calls it
// once per run before the first access issues.
func (p *Profiler) Bind(params Params) {
	p.p = params
	p.perHop = check.NoCZeroLoad(params.NoC, 1)
	p.inflight = make(map[int64]accessRec)
	p.comp = [NumComponents]int64{}
	p.perCore = make([][NumComponents]int64, params.Cores)
	p.mcQueue = make([]int64, params.MCs)
	p.mcService = make([]int64, params.MCs)
	p.accesses = 0
	p.endToEnd = 0
	p.migrations = 0
	p.migCycles = 0
	p.violations = nil
	p.obs = obs.OrNew(params.Obs)
	p.endHist = p.obs.Reg.Histogram("prof", "access_latency", histBounds())
	p.stageHists = make([]*obs.Histogram, len(StageNames))
	for i, s := range StageNames {
		p.stageHists[i] = p.obs.Reg.Histogram("prof", "stage_latency", histBounds(), "stage="+s)
	}
}

// violate records an internal consistency failure (attribution running
// backwards, a DRAM split that disagrees with the elapsed window). A clean run records none;
// the profile-smoke gate asserts that.
func (p *Profiler) violate(format string, args ...any) {
	if len(p.violations) < 64 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the internal consistency failures of the bound run.
func (p *Profiler) Violations() []string { return p.violations }

// Begin registers access id, issued by core at time t.
func (p *Profiler) Begin(id int64, core int, t int64) {
	p.inflight[id] = accessRec{core: core, start: t, last: t}
	if p.trace.keeps(id) {
		p.trace.event('b', "access", id, core, t, nil)
	}
}

// Stage attributes the cycles since the access's previous event to the
// stage's component(s). Stages that carry no latency of their own — DRAM
// submission, migration copy flits — are ignored.
func (p *Profiler) Stage(id int64, s probe.Stage) {
	switch s.Kind {
	case probe.L1:
		p.stageAt(id, CompL1, &s)
	case probe.L2:
		p.stageAt(id, CompL2, &s)
	case probe.Dir:
		p.stageAt(id, CompDirLookup, &s)
	case probe.Req:
		p.transitAt(id, CompNoCReqHops, CompNoCReqQueue, &s)
	case probe.Fwd:
		p.transitAt(id, CompFwdHops, CompFwdQueue, &s)
	case probe.Resp:
		p.transitAt(id, CompNoCRespHops, CompNoCRespQueue, &s)
	case probe.DRAMDone:
		p.dramDone(id, s.MC, s.Service.Start-s.Service.Arrive, s.T-s.Service.Start, &s)
	case probe.DRAMIdeal:
		p.dramDone(id, -1, 0, -1, &s)
	}
}

// attribute charges the delta cycles starting at from to component c on
// the access's core, and writes them as a trace slice when the access is
// traced. s is the stage that ended them (nil at retirement).
func (p *Profiler) attribute(id int64, rec *accessRec, c Component, from, delta int64, s *probe.Stage) {
	if delta < 0 {
		p.violate("component %v of access on core %d ran backwards (%d cycles)", c, rec.core, delta)
		return
	}
	p.comp[c] += delta
	if rec.core >= 0 && rec.core < len(p.perCore) {
		p.perCore[rec.core][c] += delta
	}
	if delta > 0 && p.trace.keeps(id) {
		p.trace.event('b', c.String(), id, rec.core, from, s)
		p.trace.event('e', c.String(), id, rec.core, from+delta, nil)
	}
}

// stageAt records that the access finished component c at stage s,
// attributing all cycles since its previous event to c.
func (p *Profiler) stageAt(id int64, c Component, s *probe.Stage) {
	rec, ok := p.inflight[id]
	if !ok {
		p.violate("stage %v reported for unknown access %d", c, id)
		return
	}
	delta := s.T - rec.last
	p.attribute(id, &rec, c, rec.last, delta, s)
	if delta >= 0 {
		p.stageHists[stageIndex[compStage[c]]].Observe(delta)
	}
	rec.last = s.T
	p.inflight[id] = rec
}

// transitAt records one network traversal s, splitting the cycles since the
// access's previous event into the zero-load cost of its hops (component
// hopsC) and link queueing (queueC).
func (p *Profiler) transitAt(id int64, hopsC, queueC Component, s *probe.Stage) {
	rec, ok := p.inflight[id]
	if !ok {
		p.violate("transit reported for unknown access %d", id)
		return
	}
	arrive := s.T
	delta := arrive - rec.last
	zero := int64(s.Hops) * p.perHop
	if zero > delta {
		// Attribution never exceeds the elapsed window: a transit departing
		// before the previous event would break exclusivity.
		p.violate("transit of access %d: zero-load %d exceeds elapsed %d", id, zero, delta)
		zero = delta
	}
	p.attribute(id, &rec, hopsC, rec.last, zero, s)
	p.attribute(id, &rec, queueC, rec.last+zero, delta-zero, s)
	if delta >= 0 {
		p.stageHists[stageIndex[compStage[hopsC]]].Observe(delta)
	}
	rec.last = arrive
	p.inflight[id] = rec
}

// dramDone records that the access's memory request finished at stage s,
// attributing the cycles since the previous event to DRAM queue wait and
// bank service by the controller's own split. mc < 0 marks the optimal
// scheme's contention-free service (service < 0: all elapsed cycles are
// service), which belongs to no controller.
func (p *Profiler) dramDone(id int64, mc int, queue, service int64, s *probe.Stage) {
	rec, ok := p.inflight[id]
	if !ok {
		p.violate("DRAM completion for unknown access %d", id)
		return
	}
	finish := s.T
	delta := finish - rec.last
	if service < 0 {
		service = delta
	}
	if queue+service != delta {
		// The submit stage and the controller's arrive stamp coincide by
		// construction; a mismatch means a stage went missing. Keep
		// conservation: trust the service time, absorb the difference into
		// queueing.
		p.violate("access %d: mc%d split %d+%d != elapsed %d", id, mc, queue, service, delta)
		queue = delta - service
	}
	p.attribute(id, &rec, CompDRAMQueue, rec.last, queue, s)
	p.attribute(id, &rec, CompDRAMService, rec.last+queue, service, s)
	if delta >= 0 {
		p.stageHists[stageIndex["dram"]].Observe(delta)
	}
	if mc >= 0 && mc < len(p.mcQueue) && queue >= 0 && service >= 0 {
		p.mcQueue[mc] += queue
		p.mcService[mc] += service
	}
	rec.last = finish
	p.inflight[id] = rec
}

// End retires the access at time t. Cycles between the last attributed
// event and t land in CompRetire; on every current simulator path the
// completion event fires exactly at the last attributed time, so a nonzero
// retire component flags an unattributed latency source.
func (p *Profiler) End(id int64, t int64) {
	rec, ok := p.inflight[id]
	if !ok {
		p.violate("access %d retired twice (or never started)", id)
		return
	}
	p.attribute(id, &rec, CompRetire, rec.last, t-rec.last, nil)
	delete(p.inflight, id)
	if p.trace.keeps(id) {
		p.trace.event('e', "access", id, rec.core, t, nil)
	}
	p.accesses++
	total := t - rec.start
	p.endToEnd += total
	p.endHist.Observe(total)
}

// Migrate records one committed page migration: its copy transit time
// (launch to last flit landing) and the total TLB shootdown charged across
// the sharer cores. The cost lands in the "migration" stage histogram and
// the migration aggregates — deliberately outside the per-access
// components, whose exclusive sum must stay equal to the end-to-end latency.
func (p *Profiler) Migrate(m probe.Migration) {
	p.migrations++
	p.migCycles += m.Copy + m.Stall
	if m.Copy >= 0 {
		p.stageHists[stageIndex["migration"]].Observe(m.Copy)
	}
}

// Finish publishes the aggregates into the bound registry and verifies the
// run drained: every started access ended.
func (p *Profiler) Finish(probe.Totals) {
	if n := len(p.inflight); n > 0 {
		p.violate("%d accesses still in flight at end of run", n)
	}
	reg := p.obs.Reg
	reg.Counter("prof", "accesses").Add(p.accesses)
	reg.Counter("prof", "end_to_end_cycles").Add(p.endToEnd)
	for c := Component(0); c < NumComponents; c++ {
		reg.Counter("prof", "stage_cycles", "stage="+compStage[c], "sub="+compSub[c]).Add(p.comp[c])
	}
	for core := range p.perCore {
		for c := Component(0); c < NumComponents; c++ {
			if v := p.perCore[core][c]; v != 0 {
				reg.Counter("prof", "core_cycles",
					fmt.Sprintf("core=%d", core), "stage="+compStage[c], "sub="+compSub[c]).Add(v)
			}
		}
	}
	if p.migrations != 0 {
		reg.Counter("prof", "migrations").Add(p.migrations)
		reg.Counter("prof", "migration_cycles").Add(p.migCycles)
	}
	for mc := range p.mcQueue {
		if p.mcQueue[mc] != 0 || p.mcService[mc] != 0 {
			reg.Counter("prof", "mc_cycles", fmt.Sprintf("mc=%d", mc), "sub=queue").Add(p.mcQueue[mc])
			reg.Counter("prof", "mc_cycles", fmt.Sprintf("mc=%d", mc), "sub=service").Add(p.mcService[mc])
		}
	}
}

// Profile snapshots the bound run's attribution into a self-contained
// value (histograms are cloned, so the snapshot survives the registry).
func (p *Profiler) Profile() *Profile {
	out := &Profile{
		Cores:           len(p.perCore),
		MCs:             len(p.mcQueue),
		Accesses:        p.accesses,
		EndToEnd:        p.endToEnd,
		Migrations:      p.migrations,
		MigrationCycles: p.migCycles,
		Comp:            make([]int64, NumComponents),
		PerCore:         make([][]int64, len(p.perCore)),
		MCQueue:         append([]int64(nil), p.mcQueue...),
		MCService:       append([]int64(nil), p.mcService...),
		End:             p.endHist.Clone(),
		Stages:          make(map[string]*obs.Histogram, len(StageNames)),
		Violations:      append([]string(nil), p.violations...),
	}
	copy(out.Comp, p.comp[:])
	for i := range p.perCore {
		out.PerCore[i] = append([]int64(nil), p.perCore[i][:]...)
	}
	for i, s := range StageNames {
		out.Stages[s] = p.stageHists[i].Clone()
	}
	return out
}

// Profile is one run's (or one aggregated sweep's) complete attribution.
type Profile struct {
	Cores     int
	MCs       int
	Accesses  int64
	EndToEnd  int64   // Σ per-access end-to-end cycles
	Comp      []int64 // indexed by Component
	PerCore   [][]int64
	MCQueue   []int64
	MCService []int64

	// Migration overhead, outside the per-access attribution (and therefore
	// outside the Attributed()==EndToEnd identity): committed page
	// migrations and their total copy+shootdown cycles.
	Migrations      int64
	MigrationCycles int64

	End    *obs.Histogram            // end-to-end latency distribution
	Stages map[string]*obs.Histogram // per-visit latency by coarse stage

	// Violations carries the profiler's internal consistency failures into
	// the snapshot (empty for a clean run — the profile-smoke gate asserts
	// it).
	Violations []string
}

// Attributed returns the sum of every component — by construction equal to
// EndToEnd for a clean run (the conservation invariant the tests enforce).
func (p *Profile) Attributed() int64 {
	var s int64
	for _, v := range p.Comp {
		s += v
	}
	return s
}

// PerAccess returns the component's mean cycles per completed access.
func (p *Profile) PerAccess(c Component) float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.Comp[c]) / float64(p.Accesses)
}

// Add folds another profile into p (sweep aggregation). Core and MC slices
// grow to cover the larger machine; histograms merge bucket-wise.
func (p *Profile) Add(o *Profile) {
	if o == nil {
		return
	}
	if p.Comp == nil {
		p.Comp = make([]int64, NumComponents)
	}
	for i := range o.Comp {
		p.Comp[i] += o.Comp[i]
	}
	for len(p.PerCore) < len(o.PerCore) {
		p.PerCore = append(p.PerCore, make([]int64, NumComponents))
	}
	for i := range o.PerCore {
		for c := range o.PerCore[i] {
			p.PerCore[i][c] += o.PerCore[i][c]
		}
	}
	for len(p.MCQueue) < len(o.MCQueue) {
		p.MCQueue = append(p.MCQueue, 0)
		p.MCService = append(p.MCService, 0)
	}
	for i := range o.MCQueue {
		p.MCQueue[i] += o.MCQueue[i]
		p.MCService[i] += o.MCService[i]
	}
	if p.Cores < o.Cores {
		p.Cores = o.Cores
	}
	if p.MCs < o.MCs {
		p.MCs = o.MCs
	}
	p.Accesses += o.Accesses
	p.EndToEnd += o.EndToEnd
	p.Migrations += o.Migrations
	p.MigrationCycles += o.MigrationCycles
	if p.End == nil {
		p.End = obs.NewHistogram(histBounds())
	}
	p.End.Absorb(o.End)
	if p.Stages == nil {
		p.Stages = make(map[string]*obs.Histogram, len(StageNames))
	}
	for _, s := range StageNames {
		if o.Stages[s] == nil {
			continue
		}
		if p.Stages[s] == nil {
			p.Stages[s] = obs.NewHistogram(histBounds())
		}
		p.Stages[s].Absorb(o.Stages[s])
	}
	p.Violations = append(p.Violations, o.Violations...)
}
