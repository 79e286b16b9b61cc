// Package core is the library façade: it wires the compiler pass
// (internal/layout with internal/approx), the trace generator, and the
// manycore simulator into the three runs every experiment compares —
// baseline (original layouts), optimized (the paper's transformation), and
// the Section 2 optimal scheme — and distills the simulator output into the
// metrics the paper's figures report.
package core

import (
	"fmt"
	"sync"

	"offchip/internal/approx"
	"offchip/internal/check"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/noc"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/sim"
	"offchip/internal/stats"
	"offchip/internal/trace"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// Options tunes an experiment run.
type Options struct {
	// Threads is the total software thread count (0: one per core).
	Threads int
	// MaxAccessesPerThread caps trace length. Zero means full (unsampled)
	// traces: experiments need identical iteration coverage in the
	// baseline and optimized runs so that miss counts stay comparable.
	MaxAccessesPerThread int
	// BaselinePolicy is the page policy of the baseline run under page
	// interleaving (default PolicyInterleaved; PolicyFirstTouch for the
	// Section 6.3 comparison).
	BaselinePolicy sim.PolicyKind
	// MLPWindow overrides the per-core outstanding-miss window (0: default).
	MLPWindow int
	// BanksPerMC overrides the DRAM bank count per controller (0: the
	// calibrated default of 16). The M1-vs-M2 experiments (Figures 17/18)
	// simulate the default; only their Section 4 mapping chooser costs the
	// paper's nominal 4 banks per device.
	BanksPerMC int
	// Contention disables NoC link contention when explicitly set false
	// via NoContention (ablation).
	NoContention bool
	// Seed forwards to sim.Config.Seed: it decorrelates the deterministic
	// per-access jitter stream between runs. Zero (the default) keeps the
	// historical stream every recorded figure uses.
	Seed uint64
	// Attach, when set, is called once per run ("baseline", "optimized",
	// "optimal") before any run starts, with that run's own configuration:
	// the hook for everything that observes a run — the registry (Obs),
	// the invariant checker (Check), the latency profiler (Prof) and live
	// progress (OnProgress). Compare collects whatever each run carries
	// into Comparison.Observers, Checks and Profiles; a run left without
	// Obs gets a fresh registry. The runs execute concurrently, so anything
	// the hook shares between them (an OnProgress closure, say) must be
	// safe for concurrent use.
	Attach func(run string, cfg *sim.Config)
	// TraceCache, when set, memoizes trace generation across runs and jobs
	// (see internal/tracecache): each per-core stream is generated once per
	// (program, threads, cap, machine, layout fingerprint) and shared.
	// Cached streams are byte-identical to freshly generated ones, so the
	// cache is purely a wall-clock lever. Nil disables caching.
	TraceCache *tracecache.Cache
	// Migrate, when set, attaches the online hot-page migration engine to
	// the baseline and optimized runs (never the optimal scheme, which
	// already serves every request from the nearest controller). Requires
	// page interleaving; see mem.MigrationSpec. Nil (the default) keeps the
	// static policies bit-identical to their historical results.
	Migrate *mem.MigrationSpec
	// Sample, when set, replaces each full simulation with SMARTS-style
	// sampled simulation over the same traces (see sim.SampleSpec): metrics
	// become window-extrapolated estimates with confidence bounds, recorded
	// in Comparison.Sampled. Nil (the default) runs exact full simulations
	// with bit-identical historical results.
	Sample *sim.SampleSpec
}

// Metrics distills one simulation run.
type Metrics struct {
	ExecTime      int64
	OnChipNetAvg  float64 // mean network latency of on-chip accesses
	OffChipNetAvg float64 // mean network latency of off-chip accesses
	MemAvg        float64 // mean off-chip memory latency (queue + service)
	QueueAvg      float64 // mean off-chip queue wait (the Figure 14 mechanism)
	OffChipShare  float64 // fraction of accesses served off-chip (Figure 3)
	AvgQueueOcc   float64 // mean bank-queue occupancy (Figure 18)
	HopCDFOn      []float64
	HopCDFOff     []float64
	AccessMap     [][]int64 // [node][mc] off-chip requests (Figure 13)
	AppExecTime   map[int]int64

	// Online page migration (zero unless Options.Migrate fired).
	Migrations     int64
	MigCopyMsgs    int64
	MigStallCycles int64
}

// metrics fills Metrics for one run: the scalar metrics from its headline
// estimates — a sampled run's window means, or a full run's own values as
// zero-width bounds (sim.Result.Estimates) — and the distributional metrics
// and migration counts from its result, the full run or a sampled run's
// aggregated windows.
func metrics(est sim.SampledEstimates, r *sim.Result, appExec map[int]int64) Metrics {
	return Metrics{
		ExecTime:       est.ExecCycles(),
		OnChipNetAvg:   est.OnChipNetAvg.Mean,
		OffChipNetAvg:  est.OffChipNetAvg.Mean,
		MemAvg:         est.MemAvg.Mean,
		QueueAvg:       est.QueueAvg.Mean,
		OffChipShare:   est.OffChipShare.Mean,
		AvgQueueOcc:    est.AvgQueueOcc.Mean,
		HopCDFOn:       r.HopCDF[noc.OnChip],
		HopCDFOff:      r.HopCDF[noc.OffChip],
		AccessMap:      r.AccessMap,
		AppExecTime:    appExec,
		Migrations:     r.Migrations,
		MigCopyMsgs:    r.MigCopyMsgs,
		MigStallCycles: r.MigStallCycles,
	}
}

// Comparison is the outcome of running one application three ways.
type Comparison struct {
	App       string
	Machine   layout.Machine
	Mapping   string
	Baseline  Metrics
	Optimized Metrics
	Optimal   Metrics

	// Observers holds each run's observability layer ("baseline",
	// "optimized", "optimal") — the registries the -report dashboard and
	// -metrics dump read from.
	Observers map[string]*obs.Observer

	// Checks holds the invariant violations of each run that carried a
	// checker (nil slices mean the run was clean; nil when none did).
	Checks map[string][]check.Violation

	// Profiles holds the latency attribution of each run that carried a
	// profiler (nil when none did).
	Profiles map[string]*prof.Profile

	// Sampled holds each run's sampled-simulation outcome — estimates with
	// confidence bounds — when Options.Sample was set (nil otherwise). The
	// Baseline/Optimized/Optimal metrics are then the estimate means.
	Sampled map[string]*sim.SampledResult

	// Compiler statistics (Table 2).
	PctArraysOptimized float64
	PctRefsSatisfied   float64
}

// Improvement helpers: fractional reduction of the optimized run vs the
// baseline for the four Figure 14/16 metrics.

// ExecImprovement returns 1 − T_opt/T_base.
func (c *Comparison) ExecImprovement() float64 {
	return stats.Improvement(float64(c.Baseline.ExecTime), float64(c.Optimized.ExecTime))
}

// OnChipNetImprovement returns the on-chip network latency reduction.
func (c *Comparison) OnChipNetImprovement() float64 {
	return stats.Improvement(c.Baseline.OnChipNetAvg, c.Optimized.OnChipNetAvg)
}

// OffChipNetImprovement returns the off-chip network latency reduction.
func (c *Comparison) OffChipNetImprovement() float64 {
	return stats.Improvement(c.Baseline.OffChipNetAvg, c.Optimized.OffChipNetAvg)
}

// MemImprovement returns the off-chip memory latency reduction.
func (c *Comparison) MemImprovement() float64 {
	return stats.Improvement(c.Baseline.MemAvg, c.Optimized.MemAvg)
}

// QueueImprovement returns the off-chip queue-wait reduction — the paper's
// stated mechanism behind the Figure 14/16 memory latency bars ("as a
// result of the reduction in queuing latency").
func (c *Comparison) QueueImprovement() float64 {
	return stats.Improvement(c.Baseline.QueueAvg, c.Optimized.QueueAvg)
}

// OptimalExecImprovement returns the Section 2 bound: 1 − T_optimal/T_base.
func (c *Comparison) OptimalExecImprovement() float64 {
	return stats.Improvement(float64(c.Baseline.ExecTime), float64(c.Optimal.ExecTime))
}

// SimConfig assembles the simulator configuration for the machine/mapping.
// Cache capacities are scaled down from Table 1 in proportion to the
// synthetic kernels' footprints (a few MB instead of the paper's 124 MB to
// 1.9 GB inputs), so that working sets exceed the aggregate L2 the way the
// real applications exceeded the real 16 MB — the off-chip access share
// (Figure 3) depends on that ratio, not on absolute sizes.
func SimConfig(m layout.Machine, cm *layout.ClusterMapping, opt Options) sim.Config {
	cfg := sim.DefaultConfig(m, cm)
	cfg.L1Bytes = 2 << 10
	cfg.L2Bytes = 8 << 10
	if m.L2 == layout.SharedL2 {
		// A shared SNUCA cache holds each line once; private L2s replicate
		// shared lines. With the footprint-scaled capacities this is worth
		// roughly a doubling of effective per-bank capacity.
		cfg.L2Bytes = 16 << 10
	}
	cfg.DRAM.RowBytes = 1 << 10
	if opt.MLPWindow > 0 {
		cfg.MLPWindow = opt.MLPWindow
	}
	if opt.BanksPerMC > 0 {
		cfg.DRAM.BanksPerMC = opt.BanksPerMC
	}
	if opt.NoContention {
		cfg.NoC.Contention = false
	}
	cfg.Seed = opt.Seed
	cfg.Migrate = opt.Migrate
	return cfg
}

// Workloads builds the baseline and optimized traces for an application.
// The baseline does not wait for the pass: it is generated on its own
// goroutine while the caller runs the full pass (with the Section 5.4
// profiler) and then generates the optimized trace. Both read the program
// and its data store and write neither. The baseline's error is reported
// before the optimized run's.
func Workloads(app *workloads.App, m layout.Machine, cm *layout.ClusterMapping, opt Options) (base, optim *sim.Workload, res *layout.Result, err error) {
	p, store, err := app.Load()
	if err != nil {
		return nil, nil, nil, err
	}
	var baseErr, optErr error
	forkJoin(func() {
		optim, res, optErr = runTrace("optimized", p, store, m, cm, opt)
	}, func() {
		base, _, baseErr = runTrace("baseline", p, store, m, cm, opt)
	})
	for _, err := range []error{baseErr, optErr} {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return base, optim, res, nil
}

// RunWorkload builds only the trace that one run of the application
// replays (see runTrace): a baseline run skips the layout pass.
func RunWorkload(app *workloads.App, run string, m layout.Machine, cm *layout.ClusterMapping, opt Options) (*sim.Workload, error) {
	p, store, err := app.Load()
	if err != nil {
		return nil, err
	}
	w, _, err := runTrace(run, p, store, m, cm, opt)
	return w, err
}

// runTrace builds the trace the named run replays from a loaded program,
// through the trace cache when one is attached (a nil TraceCache is plain
// trace.Generate). The optimized run replays the layouts of the full pass
// (with the Section 5.4 profiler), whose result it also returns; every
// other run replays identity layouts, which need no pass, and returns a nil
// result.
func runTrace(run string, p *ir.Program, store *ir.DataStore, m layout.Machine, cm *layout.ClusterMapping, opt Options) (*sim.Workload, *layout.Result, error) {
	var res *layout.Result
	if run == "optimized" {
		var err error
		res, err = layout.Optimize(p, m, cm, &layout.Options{
			Threads: opt.Threads,
			Approx:  approx.NewProfiler(store),
		})
		if err != nil {
			return nil, nil, err
		}
	}
	layouts := res
	if layouts == nil {
		layouts = &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	}
	tOpt := trace.Options{Threads: opt.Threads, MaxAccessesPerThread: opt.MaxAccessesPerThread}
	w, err := opt.TraceCache.Generate(p, layouts, m, store, tOpt)
	if err != nil {
		return nil, nil, err
	}
	return w, res, nil
}

// forkJoin runs fns[0] on the calling goroutine and every other function on
// a goroutine of its own, and returns once all of them have returned. A
// panic in any of them is recovered where it happens; once all have
// returned, the first panic in argument order is raised again on the
// caller, so it reaches the caller's recover (the runner's per-job one)
// instead of killing the process from a goroutine nobody can recover on.
// It is the only place core starts a goroutine.
func forkJoin(fns ...func()) {
	panics := make([]any, len(fns))
	call := func(i int) {
		defer func() { panics[i] = recover() }()
		fns[i]()
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for i := 1; i < len(fns); i++ {
		go func() {
			defer wg.Done()
			call(i)
		}()
	}
	call(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// MixRunWorkload builds the composed workload that one run of a
// multiprogrammed mix replays. Each entry's application gets its trace as
// RunWorkload builds it (sharing the trace cache when one is attached):
// identity layouts for the baseline, the transformed traces for the
// optimized run, so OS-assisted placement still sees each app's desired
// controllers. The entries' traces are then composed in entry order: side
// by side for the whole run for a co-run mix (trace.Merge), or phase-major
// with the entries' core rotations for a phase-changing one
// (trace.ComposeMix).
func MixRunWorkload(mix workloads.MixSpec, run string, m layout.Machine, cm *layout.ClusterMapping, opt Options) (*sim.Workload, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	ws := make([]*sim.Workload, len(mix.Entries))
	rotates := make([]int, len(mix.Entries))
	for i, e := range mix.Entries {
		app, _ := workloads.ByName(e.App)
		w, err := RunWorkload(app, run, m, cm, opt)
		if err != nil {
			return nil, fmt.Errorf("core: mix entry %s: %w", e.App, err)
		}
		ws[i], rotates[i] = w, e.Rotate
	}
	if mix.CoRun {
		return trace.Merge(mix.String(), ws...), nil
	}
	return trace.ComposeMix(mix.String(), m.Cores(), ws, rotates)
}

// Compare runs the application three ways on the machine: baseline,
// optimized, and the optimal scheme (on the baseline trace).
func Compare(app *workloads.App, m layout.Machine, cm *layout.ClusterMapping, opt Options) (*Comparison, error) {
	baseW, optW, res, err := Workloads(app, m, cm, opt)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", app.Name, err)
	}

	type simJob struct {
		name    string
		cfg     sim.Config
		w       *sim.Workload
		res     *sim.Result
		sampled *sim.SampledResult
		err     error
	}
	jobs := []*simJob{
		{name: "baseline", w: baseW},
		{name: "optimized", w: optW},
		{name: "optimal", w: baseW},
	}
	// Configure and attach every run, in run order, before any starts, then
	// execute them concurrently. The runs share only immutable inputs (the
	// traces), so the results are bit-identical to running them one after
	// another.
	for _, j := range jobs {
		j.cfg = RunConfig(j.name, m, cm, opt)
	}
	run := func(j *simJob) func() {
		return func() { j.res, j.sampled, j.err = Simulate(j.cfg, j.w, opt.Sample) }
	}
	forkJoin(run(jobs[0]), run(jobs[1]), run(jobs[2]))
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("core: %s %s: %w", app.Name, j.name, j.err)
		}
	}
	metricsOf := func(j *simJob) Metrics {
		if j.sampled != nil {
			return metrics(j.sampled.Est, j.res, j.sampled.AppExecTime)
		}
		return metrics(j.res.Estimates(), j.res, j.res.AppExecTime)
	}
	var sampled map[string]*sim.SampledResult
	if opt.Sample != nil {
		sampled = map[string]*sim.SampledResult{}
		for _, j := range jobs {
			sampled[j.name] = j.sampled
		}
	}

	observers := map[string]*obs.Observer{}
	var checks map[string][]check.Violation
	var profiles map[string]*prof.Profile
	for _, j := range jobs {
		observers[j.name] = j.cfg.Obs
		if ck := j.cfg.Check; ck != nil {
			if checks == nil {
				checks = map[string][]check.Violation{}
			}
			checks[j.name] = ck.Violations()
		}
		if pf := j.cfg.Prof; pf != nil {
			if profiles == nil {
				profiles = map[string]*prof.Profile{}
			}
			profiles[j.name] = pf.Profile()
		}
	}

	return &Comparison{
		App:                app.Name,
		Machine:            m,
		Mapping:            cm.Name,
		Baseline:           metricsOf(jobs[0]),
		Optimized:          metricsOf(jobs[1]),
		Optimal:            metricsOf(jobs[2]),
		Observers:          observers,
		Checks:             checks,
		Profiles:           profiles,
		Sampled:            sampled,
		PctArraysOptimized: res.PctArraysOptimized(),
		PctRefsSatisfied:   res.PctRefsSatisfied(),
	}, nil
}

// RunConfig returns the simulator configuration of one of the three runs
// Compare executes ("baseline", "optimized" or "optimal"), attached: the
// baseline runs under opt.BaselinePolicy; the optimized run, under page
// interleaving, under the OS-assisted policy that honors the layout pass's
// page placement (Section 5.3); and the optimal scheme serves every
// off-chip request from the nearest controller. opt.Attach then sees the
// finished configuration, and a run it leaves without a registry gets a
// fresh one.
func RunConfig(run string, m layout.Machine, cm *layout.ClusterMapping, opt Options) sim.Config {
	cfg := SimConfig(m, cm, opt)
	cfg.Policy = opt.BaselinePolicy
	switch run {
	case "optimized":
		if m.Interleave == layout.PageInterleave {
			cfg.Policy = sim.PolicyOSAssisted
		}
	case "optimal":
		// The optimal scheme is the migration engine's fixed point — every
		// request already goes to the nearest controller — so it never
		// migrates.
		cfg.OptimalOffchip = true
		cfg.Migrate = nil
	}
	if opt.Attach != nil {
		opt.Attach(run, &cfg)
	}
	cfg.Obs = obs.OrNew(cfg.Obs)
	return cfg
}

// Simulate executes one configured run on w: a full simulation, or a
// sampled one when sample is set. The result is the full run's, or the
// aggregate of the sampled run's measured windows; the sampled outcome,
// with its estimates and bounds, is returned only for a sampled run.
func Simulate(cfg sim.Config, w *sim.Workload, sample *sim.SampleSpec) (*sim.Result, *sim.SampledResult, error) {
	if sample == nil {
		r, err := sim.Run(cfg, w)
		return r, nil, err
	}
	sr, err := sim.RunSampled(cfg, w, *sample)
	if err != nil {
		return nil, nil, err
	}
	return sr.Aggregate, sr, nil
}
