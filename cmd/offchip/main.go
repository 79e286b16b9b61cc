// Command offchip runs the off-chip access localization pass on a program
// in the affine-loop language and reports what the compiler did and what it
// bought on the simulated manycore:
//
//	offchip -src kernel.alc                # transform + simulate
//	offchip -src kernel.alc -show          # also print the transformed forms
//	offchip -app apsi                      # use a built-in benchmark kernel
//	offchip -app apsi -l2 shared -mapping m2
//	offchip -app apsi -interleave page -policy ftnearest -migrate on
//
// The report shows the per-array transformation decisions (Table 2 style),
// the Figure 9(c) customized reference forms, and the baseline/optimized/
// optimal comparison on the Table 1 platform.
//
// Observability (see README "Observing a run"):
//
//	offchip -app apsi -progress            # live one-line run status
//	offchip -app apsi -trace t.json        # per-access attribution of the optimized run, Chrome trace
//	offchip -app apsi -metrics m.jsonl     # metrics registry dump, all runs
//	offchip -app apsi -report              # post-run text dashboard
//	offchip -app apsi -prof                # cycle-level latency attribution tables
//	offchip -app apsi -prof-folded p.txt   # folded stacks for flamegraph.pl
//	offchip -app apsi -prof-pprof p.pb.gz  # attribution as pprof protobuf
//	offchip -app apsi -serve :9090         # live /metrics, /progress, /profile, /debug/pprof/
//
// Every run is one compare job (runner.JobSpec): the flags name its machine
// and options exactly as a sweep job's ID fields do, so a combination the
// job rejects (-migrate on with line interleaving) fails before the layout
// report, also under -sim=false. An -app run prints its job ID on stderr.
// -seed is that job's seed, mixed with the job ID into the jitter stream,
// so replaying the printed ID reproduces the run (see EXPERIMENTS.md
// "Parallel sweeps"):
//
//	offchip -app apsi -seed 7              # the jitter stream of job seed 7
//	benchtab -replay '<job-id>'            # re-run the printed job bit-exactly
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"offchip/internal/approx"
	"offchip/internal/check"
	"offchip/internal/core"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/obs"
	"offchip/internal/plane"
	"offchip/internal/prof"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/stats"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "offchip:", err)
		os.Exit(1)
	}
}

func run() error {
	src := flag.String("src", "", "program in the affine-loop language")
	app := flag.String("app", "", "built-in benchmark kernel (wupwise..minimd)")
	l2 := flag.String("l2", "private", "last-level cache: private | shared")
	mapping := flag.String("mapping", "m1", "L2-to-MC mapping: m1 | m2")
	interleave := flag.String("interleave", "line", "physical address interleaving: line | page")
	policy := flag.String("policy", "interleaved", "baseline page-placement policy: interleaved | firsttouch | ftnearest | osassisted")
	migrate := flag.String("migrate", "off", `online hot-page migration for the baseline and optimized runs (requires -interleave page): off | on | h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>]`)
	show := flag.Bool("show", false, "print the transformed reference forms")
	simulate := flag.Bool("sim", true, "run the baseline/optimized/optimal simulation")
	traceOut := flag.String("trace", "", "write the optimized run's per-access latency attribution as a Chrome trace_event file (chrome://tracing, Perfetto)")
	traceSample := flag.Int64("trace-sample", 1, "-trace: keep only the accesses whose probe ID is a multiple of N, each with all its slices")
	metricsOut := flag.String("metrics", "", "write every run's registry as JSONL, plus a .manifest.json provenance record")
	progress := flag.Bool("progress", false, "print a live one-line status during simulation")
	report := flag.Bool("report", false, "print the post-run observability dashboard")
	profFlag := flag.Bool("prof", false, "attach the latency-attribution profiler and print per-stage attribution tables")
	profFolded := flag.String("prof-folded", "", "write the optimized run's attribution as folded stacks (flamegraph.pl); implies -prof")
	profPprof := flag.String("prof-pprof", "", "write the optimized run's attribution as a gzipped pprof protobuf (go tool pprof); implies -prof")
	serveAddr := flag.String("serve", "", "serve the live observability plane (/metrics, /progress, /profile, /debug/pprof/) on this address")
	checkRun := flag.Bool("check", false, "attach the invariant checker to every run and fail on any violation")
	seed := flag.Uint64("seed", 0, "the job's seed, mixed with its job ID into the jitter stream as in a sweep; 0 keeps the historical stream of the recorded figures")
	cacheFlag := flag.String("trace-cache", "", `memoize trace generation in process: "mem" (the on-disk store is retired; a directory is an error)`)
	flag.Parse()
	start := time.Now()

	tc, err := tracecache.Open(*cacheFlag)
	if err != nil {
		return err
	}
	spec := runner.JobSpec{
		L2: *l2, Mapping: *mapping, Interleave: *interleave, Policy: *policy,
		Migrate: *migrate, Seed: *seed, Cache: tc,
	}
	if *src == "" {
		spec.App = *app
	}
	m, cm, opt, err := spec.Build()
	if err != nil {
		return err
	}

	var prog *ir.Program
	var store *ir.DataStore
	var bench *workloads.App
	switch {
	case *src != "":
		text, err := os.ReadFile(*src)
		if err != nil {
			return err
		}
		prog, err = ir.Parse(string(text))
		if err != nil {
			return err
		}
		store = ir.NewDataStore()
		// Wrap the parsed program as an ad-hoc app for the comparison.
		bench = &workloads.App{Name: prog.Name, Source: string(text), Demand: layout.DefaultDemand()}
	case *app != "":
		a, ok := workloads.ByName(*app)
		if !ok {
			return fmt.Errorf("unknown application %q (have %v)", *app, workloads.Names())
		}
		bench = a
		prog, store, err = a.Load()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -src <file> or -app <name>")
	}

	res, err := layout.Optimize(prog, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
	if err != nil {
		return err
	}
	fmt.Printf("machine: %dx%d mesh, %d MCs (%s), %s, %s interleaving, mapping %s\n\n",
		m.MeshX, m.MeshY, m.NumMCs, cm.Placement.Name, m.L2, m.Interleave, cm.Name)
	fmt.Println(res.Report())

	if *show {
		fmt.Println("transformed references (Figure 9(c) forms):")
		for _, nest := range prog.Nests {
			for _, s := range nest.Body {
				for _, r := range s.Refs() {
					al := res.Layout(r.Array)
					if !al.Optimized {
						continue
					}
					if cr, err := al.RewriteRef(r); err == nil {
						fmt.Printf("  %-28s -> %s\n", r, cr)
					} else {
						fmt.Printf("  %-28s -> (%v)\n", r, err)
					}
				}
			}
		}
		fmt.Println()
	}

	if !*simulate {
		return nil
	}
	var jobID string // a -src program is no sweep job
	if spec.App != "" {
		jobID = spec.ID()
		fmt.Fprintf(os.Stderr, "offchip: job %s\n", jobID)
	}

	wantProf := *profFlag || *profFolded != "" || *profPprof != ""
	// -trace renders the optimized run's profiler as a Chrome trace; with
	// -prof that profiler is also the run's attribution profile.
	var traced *prof.Profiler
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		traced = prof.New()
		traced.TraceTo(traceFile, *traceSample)
	}
	var onProgress func(run string, p sim.Progress)
	if *progress {
		onProgress = liveProgress()
	}

	// The observability plane counts offchip's one job and holds each run's
	// registry from the moment it attaches; -serve binds before the runs
	// start, and the attribution appears on /profile once the runs retire.
	live := plane.New(1)
	live.Start(1)
	if *serveAddr != "" {
		srv, err := plane.NewServer(*serveAddr, live)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "offchip: observability plane on http://%s\n", srv.Addr())
	}

	// Every observer the flags ask for attaches here, per run.
	opt.Attach = func(run string, cfg *sim.Config) {
		if *checkRun {
			cfg.Check = check.New()
		}
		if wantProf {
			cfg.Prof = prof.New()
		}
		if traced != nil && run == "optimized" {
			cfg.Prof = traced
		}
		if onProgress != nil {
			cfg.OnProgress = func(p sim.Progress) { onProgress(run, p) }
		}
		cfg.Obs = obs.New()
		live.Record(run, cfg.Obs.Reg, 0)
	}

	c, err := core.Compare(bench, m, cm, opt)
	var profiles map[string]*prof.Profile
	if c != nil {
		profiles = c.Profiles
		// Each run's dump snapshot closes at its end time.
		live.Record("baseline", c.Observers["baseline"].Reg, c.Baseline.ExecTime)
		live.Record("optimized", c.Observers["optimized"].Reg, c.Optimized.ExecTime)
		live.Record("optimal", c.Observers["optimal"].Reg, c.Optimal.ExecTime)
	}
	live.Finish(jobID, err, profiles)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if traced != nil {
		if err := traced.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote the optimized run's access trace to %s (load in chrome://tracing or Perfetto)\n",
			*traceOut)
	}
	if *checkRun {
		bad := 0
		for _, run := range []string{"baseline", "optimized", "optimal"} {
			vs := c.Checks[run]
			if len(vs) == 0 {
				fmt.Fprintf(os.Stderr, "offchip: check %-9s ok\n", run)
				continue
			}
			bad += len(vs)
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "offchip: check %-9s VIOLATION %s\n", run, v)
			}
		}
		if bad > 0 {
			return fmt.Errorf("invariant checker found %d violation(s)", bad)
		}
	}

	t := &stats.Table{
		Title:   "simulation (baseline vs optimized vs optimal)",
		Headers: []string{"metric", "baseline", "optimized", "optimal", "improvement"},
	}
	t.AddF("execution time (cycles)", c.Baseline.ExecTime, c.Optimized.ExecTime, c.Optimal.ExecTime, stats.Pct(c.ExecImprovement()))
	t.AddF("on-chip net latency", c.Baseline.OnChipNetAvg, c.Optimized.OnChipNetAvg, c.Optimal.OnChipNetAvg, stats.Pct(c.OnChipNetImprovement()))
	t.AddF("off-chip net latency", c.Baseline.OffChipNetAvg, c.Optimized.OffChipNetAvg, c.Optimal.OffChipNetAvg, stats.Pct(c.OffChipNetImprovement()))
	t.AddF("off-chip mem latency", c.Baseline.MemAvg, c.Optimized.MemAvg, c.Optimal.MemAvg, stats.Pct(c.MemImprovement()))
	t.AddF("off-chip queue wait", c.Baseline.QueueAvg, c.Optimized.QueueAvg, c.Optimal.QueueAvg, stats.Pct(c.QueueImprovement()))
	if c.Baseline.Migrations+c.Optimized.Migrations > 0 {
		t.AddF("page migrations", c.Baseline.Migrations, c.Optimized.Migrations, c.Optimal.Migrations, "-")
		t.AddF("migration copy msgs", c.Baseline.MigCopyMsgs, c.Optimized.MigCopyMsgs, c.Optimal.MigCopyMsgs, "-")
		t.AddF("migration stall cycles", c.Baseline.MigStallCycles, c.Optimized.MigStallCycles, c.Optimal.MigStallCycles, "-")
	}
	fmt.Println(t.String())

	if opt.TraceCache != nil {
		cs := opt.TraceCache.Stats()
		fmt.Fprintf(os.Stderr, "offchip: trace cache: %d hits, %d misses\n", cs.Hits, cs.Misses)
	}

	if wantProf {
		prof.PrintAttribution(os.Stdout, os.Stderr, "offchip", "", c.Profiles)
		if err := writeFlame(c, *profFolded, *profPprof); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		manifest := plane.NewManifest(start)
		manifest.Seed = *seed
		manifest.Config = map[string]string{
			"app": bench.Name, "l2": *l2, "mapping": *mapping, "interleave": *interleave,
			"check": strconv.FormatBool(*checkRun), "prof": strconv.FormatBool(wantProf),
			"trace-cache": *cacheFlag, "policy": *policy,
		}
		if opt.Migrate != nil {
			manifest.Config["migrate"] = opt.Migrate.String()
		}
		if err := live.WriteMetrics(*metricsOut, manifest); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote metrics to %s (manifest %s)\n",
			*metricsOut, plane.ManifestPath(*metricsOut))
	}
	if *report {
		printDashboard(c, m)
	}
	return nil
}

// writeFlame writes the optimized run's attribution as the flamegraph
// exports -prof-folded and -prof-pprof ask for.
func writeFlame(c *core.Comparison, foldedOut, pprofOut string) error {
	opt := c.Profiles["optimized"]
	if foldedOut != "" && opt != nil {
		if err := os.WriteFile(foldedOut, []byte(opt.FoldedStacks(c.App)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote folded stacks to %s\n", foldedOut)
	}
	if pprofOut != "" && opt != nil {
		f, err := os.Create(pprofOut)
		if err != nil {
			return err
		}
		if err := opt.WritePprof(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "offchip: wrote pprof profile to %s (go tool pprof %s)\n", pprofOut, pprofOut)
	}
	return nil
}

// liveProgress returns a progress callback that keeps one status line
// updated on stderr: run name, simulated cycles, events/sec (wall clock),
// and in-flight misses. The three runs execute concurrently and report from
// separate goroutines, so the closure's state is mutex-guarded and each
// run's rate is taken against that run's own previous report; the line
// then shows whichever run reported last.
func liveProgress() func(run string, p sim.Progress) {
	type sample struct {
		events int64
		wall   time.Time
	}
	start := time.Now()
	var mu sync.Mutex
	last := map[string]sample{}
	return func(run string, p sim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		prev, ok := last[run]
		if !ok {
			prev.wall = start
		}
		rate := float64(p.Events-prev.events) / now.Sub(prev.wall).Seconds()
		last[run] = sample{p.Events, now}
		fmt.Fprintf(os.Stderr, "\r[%-9s] cycles=%-12d events=%-12d events/sec=%-12.0f outstanding=%-4d",
			run, p.Cycles, p.Events, rate, p.Outstanding)
	}
}

// printDashboard renders the post-run observability dashboard: the mesh
// link heat grids, the per-MC request mix and hottest banks (baseline vs
// optimized), the Figure 15 hop CDF, and the structural metric diff.
func printDashboard(c *core.Comparison, m layout.Machine) {
	base := c.Observers["baseline"].Reg
	opt := c.Observers["optimized"].Reg
	fmt.Println("== observability dashboard ==")
	fmt.Println()
	fmt.Println("--- baseline ---")
	fmt.Println(obs.LinkHeatGrid(base, m.MeshX, m.MeshY))
	fmt.Println(obs.MCRequestMix(base, c.Baseline.ExecTime).String())
	fmt.Println(obs.HottestBanks(base, 10).String())
	fmt.Println("--- optimized ---")
	fmt.Println(obs.LinkHeatGrid(opt, m.MeshX, m.MeshY))
	fmt.Println(obs.MCRequestMix(opt, c.Optimized.ExecTime).String())
	fmt.Println(obs.HottestBanks(opt, 10).String())
	fmt.Println(obs.HottestLinks(opt, 10).String())
	fmt.Println(obs.HopCDFTable(opt).String())
	fmt.Println(obs.DiffTable(base, opt).String())
}
