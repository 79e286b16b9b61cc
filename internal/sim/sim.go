// Package sim is the manycore simulator: cores replay per-thread memory
// traces through L1s, private or shared-SNUCA L2s, the mesh NoC, and
// FR-FCFS memory controllers, following the access flows of Figure 2. It
// collects every statistic the paper's evaluation reports: execution time,
// the network latency of on-chip and off-chip accesses, off-chip memory
// (queue) latency, link-traversal histograms (Figure 15), per-node per-MC
// access maps (Figure 13), and bank-queue occupancy (Figure 18). It also
// implements the "optimal scheme" of Section 2 — every off-chip request
// served by the nearest controller with no bank contention — used to bound
// the achievable savings (Figure 4).
package sim

import (
	"fmt"
	"strconv"

	"offchip/internal/cache"
	"offchip/internal/check"
	"offchip/internal/dram"
	"offchip/internal/engine"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/mesh"
	"offchip/internal/noc"
	"offchip/internal/obs"
	"offchip/internal/probe"
	"offchip/internal/prof"
)

// PolicyKind selects the page allocation policy under page interleaving.
type PolicyKind int

const (
	// PolicyInterleaved is the default: pages round-robin across MCs.
	PolicyInterleaved PolicyKind = iota
	// PolicyOSAssisted honors the layout pass's per-page desired MC
	// (Section 5.3).
	PolicyOSAssisted
	// PolicyFirstTouch allocates from the MC of the first-touching node's
	// cluster (Section 6.3).
	PolicyFirstTouch
	// PolicyFirstTouchNearest allocates from the controller *nearest* the
	// first-touching core's mesh node — the FCFS placement of the dynamic
	// rival family (the baseline the hot-page migration engine refines).
	PolicyFirstTouchNearest
)

// Config assembles the simulated machine.
type Config struct {
	Machine layout.Machine
	Mapping *layout.ClusterMapping // supplies the MC placement and clusters

	NoC  noc.Config
	DRAM dram.Config

	L1Bytes int64
	L1Ways  int
	L2Bytes int64 // per node
	L2Ways  int

	L1Latency  int64
	L2Latency  int64
	DirLatency int64 // directory lookup at the MC (private L2)

	// MLPWindow is the number of outstanding misses a core sustains.
	MLPWindow int
	// ComputeGap is the minimum cycles between successive issues of one
	// stream (non-memory work between accesses; the paper's two-issue
	// SPARC cores retire several instructions per data reference).
	ComputeGap int64
	// StartStagger delays core c's first issue by c·StartStagger cycles,
	// modeling the thread start-up skew of a real runtime; without it the
	// synthetic lockstep of identical kernels produces artificial burst
	// congestion no real system exhibits.
	StartStagger int64
	// GapJitter adds a deterministic per-access pseudo-random 0..GapJitter-1
	// cycles to ComputeGap (hashed from core and access index), modeling
	// per-iteration compute variation; identical synthetic kernels would
	// otherwise stay in lockstep and alias their miss bursts.
	GapJitter int64
	// Seed decorrelates the jitter stream between runs: it is mixed into
	// the per-access jitter hash, so two runs of the same workload with
	// different seeds sample different (but individually deterministic)
	// compute-variation sequences. Zero keeps the historical stream — every
	// recorded figure uses seed 0. The parallel experiment runner derives
	// each job's seed from a stable hash of its job ID, which is what makes
	// single-job replay bit-exact.
	Seed uint64

	// Policy selects the page allocation policy (page interleaving only).
	Policy PolicyKind

	// Migrate attaches the online hot-page migration engine (page
	// interleaving only; nil disables it and the migration code path is
	// provably inert — bit-identical results and registries). The engine
	// watches per-page access distributions over Migrate.WindowCycles
	// windows and re-homes pages whose dominant accessor crosses
	// Migrate.HotThreshold, paying the modeled cost: page-copy flits
	// through the NoC plus TLB-shootdown stalls on the sharers.
	Migrate *mem.MigrationSpec

	// OptimalOffchip turns on the Section 2 optimal scheme.
	OptimalOffchip bool

	// Obs supplies the metrics registry. Nil gets the run a private
	// registry. The substrates count in plain fields, and the run publishes
	// them into the registry every ProgressEvery processed events and at
	// its end, so a live scrape advances mid-run.
	Obs *obs.Observer

	// OnProgress, when set, is called from the simulation loop every
	// ProgressEvery processed events (default 1<<16) with live run status.
	OnProgress    func(Progress)
	ProgressEvery int64

	// Check attaches the cross-layer invariant checker and Prof the
	// latency-attribution profiler. Run binds each to this machine and
	// feeds both the one probe stream (internal/probe): every stage of every
	// access, each committed migration, and the drained run's totals. The
	// checker also watches the engine's dispatch clock. Nil (the default)
	// leaves the stream detached at the cost of one nil check per hook site.
	Check *check.Checker
	Prof  *prof.Profiler
}

// Progress is a live status sample of a running simulation.
type Progress struct {
	Cycles      int64 // simulated cycles so far
	Events      int64 // engine events processed
	Outstanding int   // memory accesses currently in flight
}

// DefaultConfig returns the paper's Table 1 machine around the given
// layout machine and mapping.
func DefaultConfig(m layout.Machine, cm *layout.ClusterMapping) Config {
	return Config{
		Machine:      m,
		Mapping:      cm,
		NoC:          noc.DefaultConfig(m.MeshX, m.MeshY),
		DRAM:         dram.DefaultConfig(),
		L1Bytes:      16 << 10,
		L1Ways:       2,
		L2Bytes:      256 << 10,
		L2Ways:       16,
		L1Latency:    2,
		L2Latency:    10,
		DirLatency:   4,
		MLPWindow:    2,
		ComputeGap:   4,
		GapJitter:    8,
		StartStagger: 17,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Mapping == nil {
		return fmt.Errorf("sim: nil cluster mapping")
	}
	if err := c.Mapping.Validate(); err != nil {
		return err
	}
	if c.Mapping.NumMCs() != c.Machine.NumMCs {
		return fmt.Errorf("sim: mapping has %d MCs, machine %d", c.Mapping.NumMCs(), c.Machine.NumMCs)
	}
	if c.Machine.Cores() > cache.MaxDirectoryCores {
		return fmt.Errorf("sim: %d cores exceed directory capacity %d", c.Machine.Cores(), cache.MaxDirectoryCores)
	}
	if err := cache.CheckGeometry(c.L1Bytes, c.Machine.LineBytes, c.L1Ways); err != nil {
		return fmt.Errorf("sim: L1 cache %w", err)
	}
	if err := cache.CheckGeometry(c.L2Bytes, c.Machine.LineBytes, c.L2Ways); err != nil {
		return fmt.Errorf("sim: L2 cache %w", err)
	}
	if c.MLPWindow <= 0 {
		return fmt.Errorf("sim: MLP window %d", c.MLPWindow)
	}
	if c.Migrate != nil {
		if err := c.Migrate.Validate(); err != nil {
			return err
		}
		if c.Machine.Interleave != layout.PageInterleave {
			return fmt.Errorf("sim: page migration requires page interleaving (the MC-select bits of a line-interleaved address sit inside the page offset)")
		}
		if c.OptimalOffchip {
			return fmt.Errorf("sim: page migration is meaningless under the optimal scheme (every request already goes to the nearest controller)")
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return nil
}

// Access is one memory reference of a trace. DesiredMC carries the layout
// pass's controller preference for OS-assisted page allocation (-1: none).
type Access struct {
	VAddr     int64
	DesiredMC int8
}

// Stream is the access sequence of one software thread, bound to a core.
// Phases optionally records the start index of each program phase (loop
// nest); under page interleaving, page allocation honors phase order across
// streams — the implicit barrier between OpenMP parallel regions — so a
// master-thread initialization phase really does perform the first touches.
type Stream struct {
	Core     int
	AppID    int
	Accesses []Access
	Phases   []int
}

// PhaseRange returns the [lo, hi) access range of phase ph in the stream.
// Streams without phase markers are one phase.
func (st *Stream) PhaseRange(ph int) (int, int) {
	if len(st.Phases) == 0 {
		if ph == 0 {
			return 0, len(st.Accesses)
		}
		return 0, 0
	}
	if ph >= len(st.Phases) {
		return 0, 0
	}
	lo := st.Phases[ph]
	hi := len(st.Accesses)
	if ph+1 < len(st.Phases) {
		hi = st.Phases[ph+1]
	}
	return lo, hi
}

// Workload is a set of streams, possibly from several applications
// (multiprogrammed mixes put one stream per application on each core).
type Workload struct {
	Name    string
	Streams []Stream
	// Sequential makes each core execute its streams one after another, in
	// declaration order, instead of round-robin time-sharing. Phase-changing
	// multiprogrammed mixes (trace.ComposeMix) set it: their per-phase
	// streams are ordered phase-major, so sequential execution realizes the
	// phases as consecutive epochs — which is what moves the hot set
	// mid-run. Single-stream cores behave identically either way.
	Sequential bool
	// Warm optionally primes the machine before timing begins — used by
	// sampled simulation so a window cut from the middle of a trace starts
	// from (approximately) the machine state the full run would have there.
	Warm *WarmState
}

// WarmState is the pre-run warming input of a window run. PageUniverse is
// preTouched in place of the run's own workload, so the window reproduces
// the full run's page placement exactly (first-touch allocation is
// timing-independent: the full run performs it all up front, in phase
// order). CacheStreams are replayed functionally — address translation,
// cache fills, directory updates; no events, no time, no statistics — to
// approximate the cache and directory contents at the window's start.
type WarmState struct {
	PageUniverse *Workload
	CacheStreams []Stream

	// Pages optionally memoizes the preTouch result. Runs whose WarmState
	// carries the same *PageMemo share one first-touch walk: the first run
	// performs it and captures a translation snapshot per application; later
	// runs restore the snapshot instead of re-walking PageUniverse. Valid
	// whenever the runs share (PageUniverse, machine config) — the snapshot
	// is exact state, so restored runs are bit-identical to replayed ones.
	Pages *PageMemo

	// memo is the per-WarmState cache/directory snapshot: the two runs of
	// one sampling window (span and warm-only) share a WarmState and
	// therefore an identical CacheStreams replay, so the first run replays
	// and captures, and the second restores.
	memo *warmSnapshot
}

// PageMemo shares one preTouch walk across runs; see WarmState.Pages.
// The zero value is ready to use. Not safe for concurrent runs.
type PageMemo struct {
	spaces []*mem.TranslationSnapshot // by AppID, like machine.spaces
}

// warmSnapshot is the machine state warmCaches produces, captured once per
// WarmState and restored into subsequent runs.
type warmSnapshot struct {
	l1s, l2s []*cache.Snapshot
	dir      *cache.DirectorySnapshot
}

// TotalAccesses returns the workload's access count.
func (w *Workload) TotalAccesses() int64 {
	var n int64
	for _, s := range w.Streams {
		n += int64(len(s.Accesses))
	}
	return n
}

// Result carries every statistic of a run.
type Result struct {
	ExecTime    int64
	AppExecTime map[int]int64

	// Access outcome counts.
	Total        int64
	Completed    int64 // accesses fully retired — conservation: == Total at drain
	L1Hits       int64
	L2LocalHits  int64 // private: local L2 hit; shared: home-bank hit
	OnChipRemote int64 // private: L2-to-L2 transfer
	OffChip      int64

	// Events is the number of engine events the run processed (the
	// denominator of the ns-per-simulated-event benchmark figure).
	Events int64

	// Network statistics by class (from the NoC).
	NetMsgs    [2]int64
	NetHops    [2]int64
	NetLatency [2]int64
	HopCDF     [2][]float64

	// Off-chip memory statistics (from the controllers).
	MemLatency   int64 // Σ queue+service
	MemQueue     int64 // Σ queue wait
	MemServed    int64
	MemSubmitted int64 // requests accepted by controllers — conservation: == MemServed at drain (0 under OptimalOffchip, which bypasses the controllers)
	RowHits      int64
	QueueOcc     []float64 // per-MC time-averaged queue length
	AvgQueueOcc  float64

	// AccessMap[node][mc] counts off-chip requests sent from each node to
	// each controller (Figure 13).
	AccessMap [][]int64

	PageSpills int64

	// Online page migration (zero unless Config.Migrate is set and fires).
	Migrations     int64 // committed page remaps
	MigCopyMsgs    int64 // page-copy messages injected through the NoC
	MigStallCycles int64 // TLB-shootdown cycles charged to sharer cores
}

// OffChipShare returns the fraction of accesses served off-chip (Figure 3).
func (r *Result) OffChipShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.OffChip) / float64(r.Total)
}

// AvgNetLatency returns the mean network latency for the class.
func (r *Result) AvgNetLatency(class noc.Class) float64 {
	if r.NetMsgs[class] == 0 {
		return 0
	}
	return float64(r.NetLatency[class]) / float64(r.NetMsgs[class])
}

// AvgMemLatency returns the mean off-chip memory latency (queue+service).
func (r *Result) AvgMemLatency() float64 {
	if r.MemServed == 0 {
		return 0
	}
	return float64(r.MemLatency) / float64(r.MemServed)
}

// AvgQueueWait returns the mean off-chip queue wait (the Figure 14
// mechanism).
func (r *Result) AvgQueueWait() float64 {
	if r.MemServed == 0 {
		return 0
	}
	return float64(r.MemQueue) / float64(r.MemServed)
}

// The headline metrics a run reduces to, indexing project's values in
// SampledEstimates field order.
const (
	metricExec = iota
	metricOnNet
	metricOffNet
	metricMem
	metricQueue
	metricShare
	metricOcc
	numMetrics
)

// project returns r's headline metrics, each read through the method that
// defines it, and whether each is defined. The exec time is divided by
// frac, the share of the full run's accesses r covers (1 for a full run).
// Nothing is defined without accesses; the latency averages also need
// their own denominator, and the occupancy needs elapsed time.
func (r *Result) project(frac float64) (v [numMetrics]float64, ok [numMetrics]bool) {
	v = [numMetrics]float64{
		metricExec:   float64(r.ExecTime) / frac,
		metricOnNet:  r.AvgNetLatency(noc.OnChip),
		metricOffNet: r.AvgNetLatency(noc.OffChip),
		metricMem:    r.AvgMemLatency(),
		metricQueue:  r.AvgQueueWait(),
		metricShare:  r.OffChipShare(),
		metricOcc:    r.AvgQueueOcc,
	}
	if r.Total > 0 {
		ok = [numMetrics]bool{
			metricExec:   true,
			metricOnNet:  r.NetMsgs[noc.OnChip] > 0,
			metricOffNet: r.NetMsgs[noc.OffChip] > 0,
			metricMem:    r.MemServed > 0,
			metricQueue:  r.MemServed > 0,
			metricShare:  true,
			metricOcc:    r.ExecTime > 0,
		}
	}
	return v, ok
}

// Estimates returns the full run r's headline metrics as zero-width
// bounds: what a sampled run estimates, known exactly. core.Metrics reads
// an exact run through it.
func (r *Result) Estimates() SampledEstimates {
	v, _ := r.project(1)
	var b [numMetrics]Bound
	for i, x := range v {
		b[i] = Bound{Mean: x}
	}
	return estimatesOf(b)
}

type coreState struct {
	streams     []streamState
	nextStream  int // next stream to try: round-robin, or the first unfinished one
	outstanding int
	nextFree    int64 // earliest next issue (compute gap pacing)
	issued      int64 // accesses issued so far (jitter hash input)
}

// streamBuf is how many accesses a stream cursor buffers. The cores'
// streams interleave, so the host's prefetchers lose track of them and a
// direct walk pays a cache miss every few accesses, one at a time; a refill
// copies streamBuf accesses at once, and the host overlaps those misses.
const streamBuf = 32

// streamState is a cursor over one stream: pop hands out its accesses in
// order, refilling a fixed buffer from the rest of the stream with one copy.
type streamState struct {
	rest      []Access // accesses not yet buffered
	head, end int      // buf[head:end] is buffered and not yet popped
	app       int
	buf       [streamBuf]Access
}

func newCursor(st *Stream) streamState {
	return streamState{rest: st.Accesses, app: st.AppID}
}

// done reports whether every access has been popped.
func (ss *streamState) done() bool { return ss.head == ss.end && len(ss.rest) == 0 }

// pop returns the next access and whether it is the stream's last. The
// cursor must not be done.
func (ss *streamState) pop() (Access, bool) {
	if ss.head == ss.end {
		ss.end = copy(ss.buf[:], ss.rest)
		ss.rest = ss.rest[ss.end:]
		ss.head = 0
	}
	acc := ss.buf[ss.head]
	ss.head++
	return acc, ss.done()
}

type machine struct {
	cfg    Config
	memCfg mem.Config
	sim    *engine.Sim
	net    *noc.Network
	mcs    []*dram.Controller
	l1s    []*cache.Cache
	l2s    []*cache.Cache
	dir    *cache.Directory
	spaces []*mem.AddressSpace // by AppID; nil for an ID no stream uses
	cores  []*coreState
	res    *Result
	probe  probe.Probe // nil when nothing observes the run
	nextID int64       // last probe ID handed to an access
	mig    *migState   // nil when migration is off
	seq    bool        // Workload.Sequential: no per-core round-robin

	appDone []int64 // by AppID: the latest completion time (Result.AppExecTime)

	feed    *obs.Feed // the access outcome counters and the Figure 13 access map
	seedMix uint64    // Seed pre-mixed for the jitter hash (0 when Seed is 0)

	freeEvents *accessEvent // recycled access events

	running int // streams not yet finished
}

// accessEvent stages: which step of the Figure 2 flow the event represents
// when it fires. One pooled accessEvent walks an access through its whole
// lifetime, rescheduling itself stage by stage, so the per-access hot path
// performs zero heap allocations.
const (
	stStart          = iota // core start-stagger kick-off
	stProcess               // issue: run the access through L1 and the Figure 2 flow
	stComplete              // retire at the current time
	stPrivOptFinish         // private optimal scheme: memory done, send data back
	stPrivSubmit            // private: request arrives at the MC directory, submit to DRAM
	stSharedHomeHit         // shared: home-bank hit, send data back to the L1
	stSharedBank            // shared: miss reaches the home bank, forward to the MC
	stSharedOptServe        // shared optimal scheme: memory done, fill the home bank
	stSharedSubmit          // shared: request arrives at the MC, submit to DRAM
	stSharedFill            // shared: fill arrives at the home bank, send to the L1
)

// accessEvent is one in-flight memory access. It embeds its own queue
// entry (bound to itself), implements both engine.Handler (its own
// continuation at each stage) and dram.Completion (the controller calls
// MemDone directly on it), and is recycled through the machine's free-list
// at retirement.
type accessEvent struct {
	engine.Event
	m    *machine
	next *accessEvent // machine free-list

	stage int8
	last  bool
	core  int
	app   int
	mcID  int
	acc   Access
	t     int64 // stage-specific captured time (e.g. the optimal scheme's finish)
	paddr int64 // physical address of an off-chip request
	local int64 // controller-local address
	id    int64 // probe ID (meaningful only while a probe is attached)

	coreNode mesh.Node
	mcNode   mesh.Node
	homeNode mesh.Node
}

// allocEvent hands out a pooled access event bound to the machine.
func (m *machine) allocEvent() *accessEvent {
	e := m.freeEvents
	if e == nil {
		e = &accessEvent{m: m}
		e.Init(e)
		return e
	}
	m.freeEvents = e.next
	e.next = nil
	return e
}

// freeEvent recycles a retired access event.
func (m *machine) freeEvent(e *accessEvent) {
	e.next = m.freeEvents
	m.freeEvents = e
}

// Handle advances the access one stage at time now. The optimal scheme's
// serve stages take their time from e.t, the finish they were scheduled at.
func (e *accessEvent) Handle(now int64) {
	m := e.m
	switch e.stage {
	case stStart:
		core := e.core
		m.freeEvent(e)
		m.tryIssue(core)
	case stProcess:
		m.process(e)
	case stComplete:
		core, app, last := e.core, e.app, e.last
		if p := m.probe; p != nil {
			p.End(e.id, now)
		}
		m.freeEvent(e)
		m.complete(core, app, last)
	case stPrivOptFinish:
		tBack := m.transit(e.id, probe.Resp, e.t, e.mcNode, e.coreNode, noc.OffChip)
		e.stage = stComplete
		m.sim.ScheduleEvent(tBack, &e.Event)
	case stPrivSubmit, stSharedSubmit:
		if p := m.probe; p != nil {
			p.Stage(e.id, probe.Stage{Kind: probe.DRAMSubmit, T: now, MC: e.mcID, Addr: e.paddr, Local: e.local})
		}
		m.mcs[e.mcID].SubmitTo(e.local, e)
	case stSharedHomeHit:
		// Path 5: home bank → L1.
		tData := m.transit(e.id, probe.Resp, now, e.homeNode, e.coreNode, noc.OnChip)
		e.stage = stComplete
		m.sim.ScheduleEvent(tData, &e.Event)
	case stSharedBank:
		// Paths 2–4, issued by the home bank.
		tReq := m.transit(e.id, probe.Req, now, e.homeNode, e.mcNode, noc.OffChip)
		if m.cfg.OptimalOffchip {
			finish := tReq + m.cfg.DRAM.TRowHit
			m.res.MemLatency += m.cfg.DRAM.TRowHit
			m.res.MemServed++
			m.stage(e, probe.DRAMIdeal, finish)
			e.stage, e.t = stSharedOptServe, finish
			m.sim.ScheduleEvent(finish, &e.Event)
			return
		}
		e.stage = stSharedSubmit
		m.sim.ScheduleEvent(tReq, &e.Event)
	case stSharedOptServe:
		tFill := m.transit(e.id, probe.Resp, e.t, e.mcNode, e.homeNode, noc.OffChip)
		e.stage = stSharedFill
		m.sim.ScheduleEvent(tFill, &e.Event)
	case stSharedFill:
		// Path 5: home bank → L1.
		tData := m.transit(e.id, probe.Resp, now, e.homeNode, e.coreNode, noc.OnChip)
		e.stage = stComplete
		m.sim.ScheduleEvent(tData, &e.Event)
	default:
		panic("sim: accessEvent in unknown stage")
	}
}

// MemDone receives the DRAM completion (dram.Completion): route the data
// back toward the requester (private) or the home bank (shared). The stage
// still holds the submit stage that handed the event to the controller.
func (e *accessEvent) MemDone(finish int64) {
	m := e.m
	if p := m.probe; p != nil {
		p.Stage(e.id, probe.Stage{Kind: probe.DRAMDone, T: finish, MC: e.mcID, Service: m.mcs[e.mcID].LastService()})
	}
	switch e.stage {
	case stPrivSubmit:
		tBack := m.transit(e.id, probe.Resp, finish, e.mcNode, e.coreNode, noc.OffChip)
		e.stage = stComplete
		m.sim.ScheduleEvent(tBack, &e.Event)
	case stSharedSubmit:
		tFill := m.transit(e.id, probe.Resp, finish, e.mcNode, e.homeNode, noc.OffChip)
		e.stage = stSharedFill
		m.sim.ScheduleEvent(tFill, &e.Event)
	default:
		panic("sim: MemDone in unknown stage")
	}
}

// stage reports that access e reached stage k at time t.
func (m *machine) stage(e *accessEvent, k probe.Kind, t int64) {
	if p := m.probe; p != nil {
		p.Stage(e.id, probe.Stage{Kind: k, T: t})
	}
}

// transit sends one message from src to dst at time t and reports it as
// stage k of access id (0: a message outside any access). It returns the
// arrival time.
func (m *machine) transit(id int64, k probe.Kind, t int64, src, dst mesh.Node, class noc.Class) int64 {
	arrive, hops := m.net.Transit(t, src, dst, class)
	if p := m.probe; p != nil {
		p.Stage(id, probe.Stage{Kind: k, T: arrive, Depart: t, From: src, To: dst, Hops: hops})
	}
	return arrive
}

// publish mirrors every plain statistic of the run into the registry: the
// substrates' and the machine's own.
func (m *machine) publish() {
	m.net.Publish()
	for _, mc := range m.mcs {
		mc.Publish()
	}
	for i := range m.l1s {
		m.l1s[i].Publish()
		m.l2s[i].Publish()
	}
	if g := m.mig; g != nil && !g.fed && m.res.Migrations != 0 {
		// Registered on the first committed migration, so a run that never
		// migrates leaves the registry identical to one without the engine.
		g.fed = true
		m.feed.Counter(&m.res.Migrations, "mig", "migrations")
		m.feed.Counter(&m.res.MigCopyMsgs, "mig", "copy_msgs")
		m.feed.Counter(&m.res.MigStallCycles, "mig", "stall_cycles")
	}
	m.feed.Publish()
}

// totalOutstanding sums in-flight accesses across cores (live reporting).
func (m *machine) totalOutstanding() int {
	var n int
	for _, cs := range m.cores {
		n += cs.outstanding
	}
	return n
}

// Run simulates the workload on the configured machine.
func Run(cfg Config, w *Workload) (*Result, error) {
	if err := checkAddresses(w); err != nil {
		return nil, err
	}
	return run(cfg, w, nil)
}

// checkAddresses rejects a stream with a negative application ID or virtual
// address, including the streams of the warm state: the machine indexes
// address spaces by application ID and page tables by virtual page. Each
// entry point checks its workload once; the window runs of a sampled
// simulation reuse slices of the checked workload.
func checkAddresses(w *Workload) error {
	if err := checkStreams("stream", w.Streams); err != nil {
		return err
	}
	if w.Warm == nil {
		return nil
	}
	if u := w.Warm.PageUniverse; u != nil {
		if err := checkStreams("page-universe stream", u.Streams); err != nil {
			return err
		}
	}
	return checkStreams("warm stream", w.Warm.CacheStreams)
}

// checkStreams ORs each stream's addresses, whose sign bit is set iff one
// of them is negative, and scans again only to name the first such access.
func checkStreams(kind string, streams []Stream) error {
	for i := range streams {
		st := &streams[i]
		if st.AppID < 0 {
			return fmt.Errorf("sim: %s %d (core %d) has negative app ID %d", kind, i, st.Core, st.AppID)
		}
		var or int64
		for _, a := range st.Accesses {
			or |= a.VAddr
		}
		if or >= 0 {
			continue
		}
		for j, a := range st.Accesses {
			if a.VAddr < 0 {
				return fmt.Errorf("sim: %s %d (core %d, app %d) has negative address %d at access %d",
					kind, i, st.Core, st.AppID, a.VAddr, j)
			}
		}
	}
	return nil
}

// run is Run with an extra consumer on the probe stream (nil: none).
func run(cfg Config, w *Workload, extra probe.Probe) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cores := cfg.Machine.Cores()
	for _, s := range w.Streams {
		if s.Core < 0 || s.Core >= cores {
			return nil, fmt.Errorf("sim: stream bound to core %d of %d", s.Core, cores)
		}
	}

	o := obs.OrNew(cfg.Obs)
	memCfg := memConfig(cfg.Machine)
	nocCfg := cfg.NoC
	nocCfg.Obs = o
	var consumers []probe.Probe
	if cfg.Check != nil {
		cfg.Check.Bind(check.Params{
			MeshX: cfg.Machine.MeshX, MeshY: cfg.Machine.MeshY,
			NoC: nocCfg, DRAM: cfg.DRAM, Mem: memCfg,
			Optimal: cfg.OptimalOffchip,
		})
		consumers = append(consumers, cfg.Check)
	}
	if cfg.Prof != nil {
		cfg.Prof.Bind(prof.Params{
			Cores: cores, MCs: cfg.Machine.NumMCs, NoC: nocCfg, Obs: o,
		})
		consumers = append(consumers, cfg.Prof)
	}
	if extra != nil {
		consumers = append(consumers, extra)
	}
	m := &machine{
		cfg:    cfg,
		memCfg: memCfg,
		sim:    &engine.Sim{},
		net:    noc.New(nocCfg),
		dir:    cache.NewDirectory(),
		probe:  probe.Join(consumers...),
		feed:   obs.NewFeed(o.Reg),
		res: &Result{
			AppExecTime: map[int]int64{},
			AccessMap:   make([][]int64, cores),
		},
	}
	if cfg.Check != nil {
		m.sim.OnDispatch = cfg.Check.EngineTick
	}
	if cfg.Seed != 0 {
		// SplitMix64 finalizer: spread the seed bits before XOR-ing into
		// the per-access jitter hash.
		z := cfg.Seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		m.seedMix = z ^ (z >> 31)
	}
	m.feed.Counter(&m.res.Total, "sim", "accesses")
	m.feed.Counter(&m.res.L2LocalHits, "sim", "l2_local_hits")
	m.feed.Counter(&m.res.OnChipRemote, "sim", "onchip_remote")
	m.feed.Counter(&m.res.OffChip, "sim", "offchip")
	mcLabels := make([]string, cfg.Machine.NumMCs)
	for mc := range mcLabels {
		mcLabels[mc] = "mc=" + strconv.Itoa(mc)
	}
	for i := range m.res.AccessMap {
		m.res.AccessMap[i] = make([]int64, cfg.Machine.NumMCs)
		nodeLabel := "node=" + strconv.Itoa(i)
		for mc := range m.res.AccessMap[i] {
			m.feed.Counter(&m.res.AccessMap[i][mc], "sim", "offchip_requests", mcLabels[mc], nodeLabel)
		}
	}
	for i := 0; i < cfg.Machine.NumMCs; i++ {
		m.mcs = append(m.mcs, dram.New(i, cfg.DRAM, m.sim, o))
	}
	if cfg.Migrate != nil {
		m.mig = newMigState(m, *cfg.Migrate)
	}
	m.seq = w.Sequential
	for i := 0; i < cores; i++ {
		l1 := cache.New(cfg.L1Bytes, cfg.Machine.LineBytes, cfg.L1Ways)
		l2 := cache.New(cfg.L2Bytes, cfg.Machine.LineBytes, cfg.L2Ways)
		l1.Instrument(o, "l1."+strconv.Itoa(i))
		l2.Instrument(o, "l2."+strconv.Itoa(i))
		m.l1s = append(m.l1s, l1)
		m.l2s = append(m.l2s, l2)
		m.cores = append(m.cores, &coreState{})
	}
	if cfg.OnProgress != nil || o.Reg != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = 1 << 16
		}
		m.sim.ProgressEvery = every
		m.sim.OnProgress = func(now, processed int64) {
			m.publish()
			if cfg.OnProgress != nil {
				cfg.OnProgress(Progress{Cycles: now, Events: processed, Outstanding: m.totalOutstanding()})
			}
		}
	}

	// Address spaces come from the page universe when one is attached: its
	// stream order fixes each application's base address, and it is a
	// superset of the run's own applications.
	spaceStreams := w.Streams
	if w.Warm != nil && w.Warm.PageUniverse != nil {
		spaceStreams = w.Warm.PageUniverse.Streams
	}
	m.addSpaces(spaceStreams)
	m.appDone = make([]int64, len(m.spaces))

	m.bindStreams(w.Streams)

	if cfg.Machine.Interleave == layout.PageInterleave {
		pu := w
		if w.Warm != nil && w.Warm.PageUniverse != nil {
			pu = w.Warm.PageUniverse
		}
		pm := (*PageMemo)(nil)
		if w.Warm != nil {
			pm = w.Warm.Pages
		}
		if pm != nil && pm.spaces != nil {
			for app, space := range m.spaces {
				if space == nil {
					continue
				}
				if app >= len(pm.spaces) || pm.spaces[app] == nil {
					panic(fmt.Sprintf("sim: PageMemo has no snapshot for app %d — shared across runs with different page universes", app))
				}
				space.Restore(pm.spaces[app])
			}
		} else {
			m.preTouch(pu)
			if pm != nil {
				pm.spaces = make([]*mem.TranslationSnapshot, len(m.spaces))
				for app, space := range m.spaces {
					if space != nil {
						pm.spaces[app] = space.Snapshot()
					}
				}
			}
		}
	}
	if w.Warm != nil && len(w.Warm.CacheStreams) > 0 {
		if s := w.Warm.memo; s != nil {
			for i := range m.l1s {
				m.l1s[i].Restore(s.l1s[i])
				m.l2s[i].Restore(s.l2s[i])
			}
			m.dir.Restore(s.dir)
		} else {
			m.warmCaches(w.Warm.CacheStreams)
			s := &warmSnapshot{dir: m.dir.Snapshot()}
			for i := range m.l1s {
				s.l1s = append(s.l1s, m.l1s[i].Snapshot())
				s.l2s = append(s.l2s, m.l2s[i].Snapshot())
			}
			w.Warm.memo = s
		}
	}
	for core := range m.cores {
		e := m.allocEvent()
		e.stage, e.core = stStart, core
		m.sim.ScheduleEvent(int64(core)*cfg.StartStagger, &e.Event)
	}
	m.sim.Run()

	m.finishStats()
	m.publish()
	if p := m.probe; p != nil {
		p.Finish(m.res.Totals(w, &cfg))
	}
	return m.res, nil
}

// memConfig is the physical memory system of the machine.
func memConfig(lm layout.Machine) mem.Config {
	return mem.Config{
		PageBytes:  lm.PageBytes,
		LineBytes:  lm.LineUnit(),
		NumMCs:     lm.NumMCs,
		Interleave: lm.Interleave,
	}
}

// addSpaces gives every application of the streams an address space, in
// stream order: an application's first stream fixes its base address.
func (m *machine) addSpaces(streams []Stream) {
	appBase := int64(0)
	for _, s := range streams {
		for s.AppID >= len(m.spaces) {
			m.spaces = append(m.spaces, nil)
		}
		if m.spaces[s.AppID] == nil {
			m.spaces[s.AppID] = mem.NewAddressSpace(m.memCfg, appBase, m.policy())
			appBase += 1 << 34
		}
	}
}

// Totals summarizes a drained run for check.VerifyTotals — the generalized
// conservation identities shared by the conservation tests, the validation
// battery, and the CLI's -check mode.
func (r *Result) Totals(w *Workload, cfg *Config) probe.Totals {
	return probe.Totals{
		TraceAccesses: w.TotalAccesses(),
		Injected:      r.Total,
		Completed:     r.Completed,
		L1Hits:        r.L1Hits,
		L2LocalHits:   r.L2LocalHits,
		OnChipRemote:  r.OnChipRemote,
		OffChip:       r.OffChip,
		NetMsgs:       r.NetMsgs,
		HopCDF:        r.HopCDF,
		MaxHops:       cfg.Machine.MeshX + cfg.Machine.MeshY - 2,
		MemSubmitted:  r.MemSubmitted,
		MemServed:     r.MemServed,
		Events:        r.Events,
		Optimal:       cfg.OptimalOffchip,
	}
}

// preTouch walks the workload phase by phase (streams in declaration order
// within a phase) and performs the virtual-to-physical allocations in that
// order: the timing simulation has no inter-core barriers, but page
// allocation must respect the program's phase structure (a serial
// initialization phase owns the first touch of every page it visits). Only
// an access to a page without a frame is translated: translating an
// allocated page changes nothing, so skipping the rest leaves the page
// tables, the allocation order and the policies' state unchanged.
func (m *machine) preTouch(w *Workload) {
	maxPhases := 1
	for i := range w.Streams {
		if n := len(w.Streams[i].Phases); n > maxPhases {
			maxPhases = n
		}
	}
	for ph := 0; ph < maxPhases; ph++ {
		for i := range w.Streams {
			st := &w.Streams[i]
			space := m.spaces[st.AppID]
			lo, hi := st.PhaseRange(ph)
			for _, acc := range st.Accesses[lo:hi] {
				if !space.Touched(space.VPage(acc.VAddr)) {
					space.Translate(acc.VAddr, st.Core, int(acc.DesiredMC))
				}
			}
		}
	}
}

// warmCaches replays the warm slices through the caches and the directory
// with the exact state mutations of the timed access path — translation,
// L1 fill, L2 fill, directory add/remove — but no events and no simulated
// time. Streams interleave round-robin, one access per stream per sweep,
// approximating the issue order of the timed run. The hit/miss counters the
// replay perturbs are reset afterwards so results count timed accesses only.
func (m *machine) warmCaches(streams []Stream) {
	curs := make([]streamState, len(streams))
	for i := range streams {
		curs[i] = newCursor(&streams[i])
	}
	for alive := true; alive; {
		alive = false
		for i := range curs {
			cur, st := &curs[i], &streams[i]
			if cur.done() {
				continue
			}
			alive = true
			acc, _ := cur.pop()
			paddr := m.spaces[st.AppID].Translate(acc.VAddr, st.Core, int(acc.DesiredMC))
			if hit, _ := m.l1s[st.Core].Access(paddr); hit {
				continue
			}
			if m.cfg.Machine.L2 == layout.SharedL2 {
				home := mem.HomeBank(paddr, m.cfg.Machine.LineUnit(), m.cfg.Machine.Cores())
				m.l2s[home].Access(paddr)
				continue
			}
			line := m.l2s[st.Core].LineAddr(paddr)
			if hit, evicted := m.l2s[st.Core].Access(paddr); !hit {
				if evicted >= 0 {
					m.dir.Remove(evicted, st.Core)
				}
				m.dir.Add(line, st.Core)
			}
		}
	}
	for core := range m.l1s {
		m.l1s[core].ResetStats()
		m.l2s[core].ResetStats()
	}
}

func (m *machine) policy() mem.Policy {
	switch m.cfg.Policy {
	case PolicyOSAssisted:
		return mem.NewOSAssistedPolicy(m.cfg.Machine.NumMCs)
	case PolicyFirstTouch:
		return &mem.FirstTouchPolicy{MCOfCore: m.cfg.Mapping.DesiredMCOf}
	case PolicyFirstTouchNearest:
		return &mem.FirstTouchNearestPolicy{NearestMC: m.nearestMCOf}
	default:
		return mem.NewInterleavedPolicy(m.cfg.Machine.NumMCs)
	}
}

// bindStreams gives each stream with accesses a cursor on its core, in
// declaration order, and counts it as running.
func (m *machine) bindStreams(streams []Stream) {
	for i := range streams {
		st := &streams[i]
		if len(st.Accesses) == 0 {
			continue
		}
		cs := m.cores[st.Core]
		cs.streams = append(cs.streams, newCursor(st))
		m.running++
	}
}

// tryIssue launches accesses for the core until its MLP window fills.
func (m *machine) tryIssue(core int) {
	cs := m.cores[core]
	for cs.outstanding < m.cfg.MLPWindow {
		ss := m.nextReady(cs)
		if ss == nil {
			return
		}
		acc, last := ss.pop()
		cs.outstanding++
		now := m.sim.Now()
		t := now
		if cs.nextFree > t {
			t = cs.nextFree
		}
		gap := m.cfg.ComputeGap
		if m.cfg.GapJitter > 0 {
			// Cheap deterministic hash of (core, issue count, seed). With
			// Seed 0 the mix term vanishes and the historical jitter stream
			// is reproduced exactly.
			h := uint64(core)*0x9e3779b97f4a7c15 + uint64(cs.issued)*0xbf58476d1ce4e5b9
			h ^= m.seedMix
			h ^= h >> 31
			gap += int64(h % uint64(m.cfg.GapJitter))
		}
		cs.issued++
		cs.nextFree = t + gap
		e := m.allocEvent()
		e.stage, e.core, e.app, e.acc, e.last = stProcess, core, ss.app, acc, last
		m.sim.ScheduleEvent(t, &e.Event)
	}
}

// nextReady picks the core's next stream with work: round-robin by default
// (streams time-share the core), or the first unfinished stream in
// declaration order under Workload.Sequential (streams run as consecutive
// epochs — the phase structure of a composed mix).
func (m *machine) nextReady(cs *coreState) *streamState {
	if m.seq {
		// Only the first unfinished stream issues, so streams finish in
		// declaration order and nextStream only moves forward.
		for ; cs.nextStream < len(cs.streams); cs.nextStream++ {
			if ss := &cs.streams[cs.nextStream]; !ss.done() {
				return ss
			}
		}
		return nil
	}
	n, i := len(cs.streams), cs.nextStream
	for k := 0; k < n; k++ {
		ss := &cs.streams[i]
		if i++; i == n {
			i = 0
		}
		if !ss.done() {
			cs.nextStream = i
			return ss
		}
	}
	return nil
}

// complete finishes one access at the current time.
func (m *machine) complete(core, app int, last bool) {
	cs := m.cores[core]
	cs.outstanding--
	m.res.Completed++
	t := m.sim.Now()
	if t > m.appDone[app] {
		m.appDone[app] = t
	}
	if t > m.res.ExecTime {
		m.res.ExecTime = t
	}
	if last {
		m.running--
	}
	m.tryIssue(core)
}

// process runs one access through the Figure 2 flow, rescheduling the
// pooled event for its next stage.
func (m *machine) process(e *accessEvent) {
	m.res.Total++
	if p := m.probe; p != nil {
		m.nextID++
		e.id = m.nextID
		p.Begin(e.id, e.core, m.sim.Now())
	}
	space := m.spaces[e.app]
	if g := m.mig; g != nil {
		// Every timed reference counts toward the page's access distribution
		// (the engine watches the TLB, not the caches), and crossing a window
		// boundary rolls the window before this access translates.
		g.touch(m.sim.Now(), e.app, space.VPage(e.acc.VAddr), e.core)
	}
	paddr := space.Translate(e.acc.VAddr, e.core, int(e.acc.DesiredMC))

	// L1.
	if hit, _ := m.l1s[e.core].Access(paddr); hit {
		m.stage(e, probe.L1, m.sim.Now()+m.cfg.L1Latency)
		e.stage = stComplete
		m.sim.ScheduleEvent(m.sim.Now()+m.cfg.L1Latency, &e.Event)
		return
	}
	if m.cfg.Machine.L2 == layout.SharedL2 {
		m.processShared(e, paddr)
		return
	}
	m.processPrivate(e, paddr)
}

// processPrivate follows Figure 2a: local L2, then the directory cached at
// the line's MC, then an L2-to-L2 transfer or an off-chip access.
func (m *machine) processPrivate(e *accessEvent, paddr int64) {
	core, app := e.core, e.app
	t0 := m.sim.Now() + m.cfg.L1Latency
	m.stage(e, probe.L1, t0)
	line := m.l2s[core].LineAddr(paddr)
	t1 := t0 + m.cfg.L2Latency
	m.stage(e, probe.L2, t1)
	if hit, evicted := m.l2s[core].Access(paddr); hit {
		m.res.L2LocalHits++
		e.stage = stComplete
		m.sim.ScheduleEvent(t1, &e.Event)
		return
	} else if evicted >= 0 {
		m.dir.Remove(evicted, core)
	}
	m.dir.Add(line, core) // the fill just performed by Access

	mcID := m.spaces[app].MCOf(paddr)
	mcNode := m.cfg.Mapping.Placement.NodeOf(mcID)
	coreNode := mesh.CoordOf(core, m.cfg.Machine.MeshX)

	// Peek the directory for the sharer nearest the requester to classify
	// the request's traffic, then send path 1 (L2 → directory at the MC).
	if owner := m.dir.Owner(line, core, m.cfg.Machine.MeshX); owner >= 0 {
		// On-chip: directory forwards to the owning L2, which sends the
		// line to the requester.
		m.res.OnChipRemote++
		tArr := m.transit(e.id, probe.Req, t1, coreNode, mcNode, noc.OnChip)
		tDir := tArr + m.cfg.DirLatency
		m.stage(e, probe.Dir, tDir)
		ownerNode := mesh.CoordOf(owner, m.cfg.Machine.MeshX)
		tFwd, hops := m.net.Transit(tDir, mcNode, ownerNode, noc.OnChip)
		if p := m.probe; p != nil {
			// The directory must never go stale: every eviction removes
			// its sharer bit, so the owner's L2 holds the line.
			p.Stage(e.id, probe.Stage{Kind: probe.Fwd, T: tFwd, Depart: tDir, From: mcNode, To: ownerNode,
				Hops: hops, Addr: line, Stale: !m.l2s[owner].Contains(line)})
		}
		tOwn := tFwd + m.cfg.L2Latency
		m.stage(e, probe.L2, tOwn)
		tData := m.transit(e.id, probe.Resp, tOwn, ownerNode, coreNode, noc.OnChip)
		e.stage = stComplete
		m.sim.ScheduleEvent(tData, &e.Event)
		return
	}

	// Off-chip (paths 1–3 of Figure 2a).
	m.res.OffChip++
	e.coreNode = coreNode
	if m.cfg.OptimalOffchip {
		// Section 2 optimal scheme: nearest controller, no bank contention.
		nearest := m.cfg.Mapping.Placement.NearestMC(coreNode)
		nearNode := m.cfg.Mapping.Placement.NodeOf(nearest)
		m.res.AccessMap[core][nearest]++
		tArr := m.transit(e.id, probe.Req, t1, coreNode, nearNode, noc.OffChip)
		m.stage(e, probe.Dir, tArr+m.cfg.DirLatency)
		finish := tArr + m.cfg.DirLatency + m.cfg.DRAM.TRowHit
		m.res.MemLatency += m.cfg.DRAM.TRowHit
		m.res.MemServed++
		m.stage(e, probe.DRAMIdeal, finish)
		e.stage, e.t, e.mcNode = stPrivOptFinish, finish, nearNode
		m.sim.ScheduleEvent(finish, &e.Event)
		return
	}
	m.res.AccessMap[core][mcID]++
	tArr := m.transit(e.id, probe.Req, t1, coreNode, mcNode, noc.OffChip)
	tDir := tArr + m.cfg.DirLatency
	m.stage(e, probe.Dir, tDir)
	e.stage, e.mcID, e.mcNode = stPrivSubmit, mcID, mcNode
	e.paddr, e.local = paddr, mem.LocalAddr(paddr, m.memCfg)
	m.sim.ScheduleEvent(tDir, &e.Event)
}

// processShared follows Figure 2b: the home L2 bank, then the controller.
// The continuation stages (stSharedBank → stSharedSubmit/stSharedOptServe →
// stSharedFill → stComplete) live on the pooled event.
func (m *machine) processShared(e *accessEvent, paddr int64) {
	core, app := e.core, e.app
	t0 := m.sim.Now() + m.cfg.L1Latency
	cores := m.cfg.Machine.Cores()
	home := mem.HomeBank(paddr, m.cfg.Machine.LineUnit(), cores)
	homeNode := mesh.CoordOf(home, m.cfg.Machine.MeshX)
	coreNode := mesh.CoordOf(core, m.cfg.Machine.MeshX)
	e.coreNode, e.homeNode = coreNode, homeNode

	// Path 1: L1 → home bank.
	m.stage(e, probe.L1, t0)
	tArr := m.transit(e.id, probe.Req, t0, coreNode, homeNode, noc.OnChip)
	tBank := tArr + m.cfg.L2Latency
	m.stage(e, probe.L2, tBank)
	if hit, _ := m.l2s[home].Access(paddr); hit {
		m.res.L2LocalHits++
		e.stage = stSharedHomeHit
		m.sim.ScheduleEvent(tBank, &e.Event)
		return
	}

	// Off-chip (paths 2–4), issued by the home bank.
	m.res.OffChip++
	mcID := m.spaces[app].MCOf(paddr)
	if m.cfg.OptimalOffchip {
		mcID = m.cfg.Mapping.Placement.NearestMC(homeNode)
	}
	mcNode := m.cfg.Mapping.Placement.NodeOf(mcID)
	m.res.AccessMap[home][mcID]++
	e.stage, e.mcID, e.mcNode = stSharedBank, mcID, mcNode
	e.paddr, e.local = paddr, mem.LocalAddr(paddr, m.memCfg)
	m.sim.ScheduleEvent(tBank, &e.Event)
}

// finishStats folds substrate statistics into the result.
func (m *machine) finishStats() {
	r := m.res
	// ExecTime was tracked at each completion (idle start-stagger events
	// on streamless cores must not count).
	if r.ExecTime == 0 {
		r.ExecTime = m.sim.Now()
	}
	r.L1Hits = 0
	for _, l1 := range m.l1s {
		r.L1Hits += l1.Hits
	}
	for c := 0; c < 2; c++ {
		r.NetMsgs[c] = m.net.Messages[c]
		r.NetHops[c] = m.net.Hops[c]
		r.NetLatency[c] = m.net.Latency[c]
		r.HopCDF[c] = m.net.HopCDF(noc.Class(c))
	}
	r.Events = m.sim.Processed()
	for _, mc := range m.mcs {
		if !m.cfg.OptimalOffchip {
			r.MemLatency += mc.TotalMemLatency
			r.MemServed += mc.Served
		}
		r.MemSubmitted += mc.Submitted
		r.MemQueue += mc.TotalQueueWait
		r.RowHits += mc.RowHits
		r.QueueOcc = append(r.QueueOcc, mc.QueueOccupancy(r.ExecTime))
	}
	for _, q := range r.QueueOcc {
		r.AvgQueueOcc += q
	}
	if len(r.QueueOcc) > 0 {
		r.AvgQueueOcc /= float64(len(r.QueueOcc))
	}
	for app, t := range m.appDone {
		if t > 0 {
			r.AppExecTime[app] = t
		}
	}
	for _, sp := range m.spaces {
		if sp != nil {
			r.PageSpills += sp.Spills
		}
	}
}
