package main

import (
	"fmt"
	"runtime"
	"time"

	"offchip/internal/approx"
	"offchip/internal/core"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/obs"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/trace"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// Span names: one per public call the traced pass times.
const (
	spanJob      = "job"
	spanSetup    = "setup"
	spanBuild    = "JobSpec.Build"
	spanLoad     = "App.Load"
	spanLayout   = "layout.Optimize"
	spanGenerate = "trace.Generate"
	spanCached   = "tracecache.Cache.Generate"
	spanCompose  = "trace.ComposeMix"
	spanRun      = "sim.Run"
	spanSampled  = "sim.RunSampled"
)

// span is one timed call. Times are offsets from the tracer's epoch.
type span struct {
	name       string
	job        string
	parent     int // index into tracer.spans; -1 for a root
	start, end time.Duration
	mallocs    uint64
	accesses   int64 // trace spans: accesses produced
	events     int64 // sim spans: engine events processed
	miss       bool  // tracecache spans: the call generated the trace
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced set-up shares the traced code path at the cost of a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	job   string
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{name: name, job: t.job, parent: parent, mallocs: t.ms.Mallocs, start: time.Since(t.epoch)})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) *span {
	if t == nil {
		return &span{}
	}
	s := &t.spans[i]
	s.end = time.Since(t.epoch)
	runtime.ReadMemStats(&t.ms)
	s.mallocs = t.ms.Mallocs - s.mallocs
	t.open = t.open[:len(t.open)-1]
	return s
}

// runOut is one simulation of a job: an exact run, or a sampled run with
// its aggregate of the measured windows.
type runOut struct {
	name    string
	res     *sim.Result
	sampled *sim.SampledResult
}

func (r runOut) execTime() int64 {
	if r.sampled != nil {
		return int64(r.sampled.Est.ExecTime.Mean + 0.5)
	}
	return r.res.ExecTime
}

// replay runs a job the way runner executes it, but through the public
// calls one at a time so that each lands in its own span: core.Compare
// for compare jobs, core.Workloads or core.MixWorkloads plus one
// simulation for baseline and optimized jobs.
func replay(spec runner.JobSpec, cache *tracecache.Cache, t *tracer) ([]runOut, error) {
	n := spec.Normalized()
	n.Cache = cache
	b := t.begin(spanBuild)
	m, cm, opt, err := n.Build()
	t.end(b)
	if err != nil {
		return nil, err
	}
	var mix *workloads.MixSpec
	if n.Mix != "" {
		if mix, err = workloads.ParseMixSpec(n.Mix); err != nil {
			return nil, err
		}
	}
	var baseW, optW *sim.Workload
	if mix != nil {
		baseW, optW, err = mixWorkloads(*mix, m, cm, opt, t)
	} else {
		app, ok := workloads.ByName(n.App)
		if !ok {
			return nil, fmt.Errorf("unknown application %q", n.App)
		}
		baseW, optW, err = appWorkloads(app, m, cm, opt, true, t)
	}
	if err != nil {
		return nil, err
	}
	cfg := core.SimConfig(m, cm, opt)
	cfg.Policy = opt.BaselinePolicy
	optCfg := cfg
	if m.Interleave == layout.PageInterleave {
		optCfg.Policy = sim.PolicyOSAssisted
	}
	type run struct {
		name string
		cfg  sim.Config
		w    *sim.Workload
	}
	var runs []run
	switch n.Mode {
	case runner.ModeCompare:
		ideal := cfg
		ideal.OptimalOffchip = true
		ideal.Migrate = nil
		runs = []run{{"baseline", cfg, baseW}, {"optimized", optCfg, optW}, {"optimal", ideal, baseW}}
	case runner.ModeBaseline:
		runs = []run{{"baseline", cfg, baseW}}
	case runner.ModeOptimized:
		runs = []run{{"optimized", optCfg, optW}}
	default:
		return nil, fmt.Errorf("mode %q is not benchmarked", n.Mode)
	}
	var out []runOut
	for _, r := range runs {
		r.cfg.Obs = obs.New()
		ro, err := simulate(r.name, r.cfg, r.w, opt.Sample, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out = append(out, ro)
	}
	return out, nil
}

func simulate(name string, cfg sim.Config, w *sim.Workload, sample *sim.SampleSpec, t *tracer) (runOut, error) {
	if sample != nil {
		i := t.begin(spanSampled)
		sr, err := sim.RunSampled(cfg, w, *sample)
		s := t.end(i)
		if err != nil {
			return runOut{}, err
		}
		for _, r := range sr.SpanResults {
			s.events += r.Events
		}
		return runOut{name: name, res: sr.Aggregate, sampled: sr}, nil
	}
	i := t.begin(spanRun)
	r, err := sim.Run(cfg, w)
	s := t.end(i)
	if err != nil {
		return runOut{}, err
	}
	s.events = r.Events
	return runOut{name: name, res: r}, nil
}

// appWorkloads is core.Workloads split into its calls. With traces false
// it stops after the layout pass (the cold workloads' set-up).
func appWorkloads(app *workloads.App, m layout.Machine, cm *layout.ClusterMapping, opt core.Options, traces bool, t *tracer) (base, optim *sim.Workload, err error) {
	i := t.begin(spanLoad)
	p, store, err := app.Load()
	t.end(i)
	if err != nil {
		return nil, nil, err
	}
	i = t.begin(spanLayout)
	res, err := layout.Optimize(p, m, cm, &layout.Options{Threads: opt.Threads, Approx: approx.NewProfiler(store)})
	t.end(i)
	if err != nil || !traces {
		return nil, nil, err
	}
	cap := opt.MaxAccessesPerThread
	if cap == 0 {
		cap = trace.Unlimited
	}
	tOpt := trace.Options{Threads: opt.Threads, MaxAccessesPerThread: cap}
	identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	if base, err = generate(opt.TraceCache, p, identity, m, store, tOpt, t); err != nil {
		return nil, nil, err
	}
	optim, err = generate(opt.TraceCache, p, res, m, store, tOpt, t)
	return base, optim, err
}

func generate(c *tracecache.Cache, p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, tOpt trace.Options, t *tracer) (*sim.Workload, error) {
	if c == nil {
		i := t.begin(spanGenerate)
		w, err := trace.Generate(p, res, m, store, tOpt)
		s := t.end(i)
		if err == nil {
			s.accesses, s.miss = w.TotalAccesses(), true
		}
		return w, err
	}
	misses := c.Stats().Misses
	i := t.begin(spanCached)
	w, err := c.Generate(p, res, m, store, tOpt)
	s := t.end(i)
	if err == nil {
		s.accesses, s.miss = w.TotalAccesses(), c.Stats().Misses > misses
	}
	return w, err
}

// mixWorkloads is core.MixWorkloads split into its calls.
func mixWorkloads(mix workloads.MixSpec, m layout.Machine, cm *layout.ClusterMapping, opt core.Options, t *tracer) (base, optim *sim.Workload, err error) {
	if err := mix.Validate(); err != nil {
		return nil, nil, err
	}
	var bases, optims []*sim.Workload
	var rotates []int
	for _, e := range mix.Entries {
		app, _ := workloads.ByName(e.App)
		b, o, err := appWorkloads(app, m, cm, opt, true, t)
		if err != nil {
			return nil, nil, fmt.Errorf("mix entry %s: %w", e.App, err)
		}
		bases, optims = append(bases, b), append(optims, o)
		rotates = append(rotates, e.Rotate)
	}
	i := t.begin(spanCompose)
	base, err = trace.ComposeMix(mix.String(), m.Cores(), bases, rotates)
	if err == nil {
		optim, err = trace.ComposeMix(mix.String(), m.Cores(), optims, rotates)
	}
	t.end(i)
	return base, optim, err
}

// setup does what a user waits for before the first job: it builds the
// job specs, runs App.Load and layout.Optimize once per application and
// machine, and, for a cached workload, fills a fresh trace cache. The
// returned specs carry that cache.
func setup(w workload, cap int, t *tracer) ([]job, *tracecache.Cache, error) {
	root := t.begin(spanSetup)
	defer t.end(root)
	jobs := w.jobs(cap)
	var cache *tracecache.Cache
	if w.cached {
		var err error
		if cache, err = tracecache.New(""); err != nil {
			return nil, nil, err
		}
	}
	seen := map[string]bool{}
	for i := range jobs {
		jobs[i].spec.Cache = cache
		n := jobs[i].spec.Normalized()
		m, cm, opt, err := n.Build()
		if err != nil {
			return nil, nil, err
		}
		apps := []string{n.App}
		if n.Mix != "" {
			mix, err := workloads.ParseMixSpec(n.Mix)
			if err != nil {
				return nil, nil, err
			}
			apps = apps[:0]
			for _, e := range mix.Entries {
				apps = append(apps, e.App)
			}
		}
		for _, name := range apps {
			key := fmt.Sprintf("%s|%s|%s|%s|%s|%dx%d|%d|%d|%d", name, n.L2, n.Interleave, n.Mapping, n.Placement, n.MeshX, n.MeshY, n.NumMCs, n.Threads, n.Cap)
			if seen[key] {
				continue
			}
			seen[key] = true
			app, ok := workloads.ByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown application %q", name)
			}
			if _, _, err := appWorkloads(app, m, cm, opt, cache != nil, t); err != nil {
				return nil, nil, err
			}
		}
	}
	return jobs, cache, nil
}
