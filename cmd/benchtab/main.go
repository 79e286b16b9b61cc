// Command benchtab regenerates the tables and figures of "Optimizing
// Off-Chip Accesses in Multicores" (PLDI 2015):
//
//	benchtab -exp fig16          # one experiment
//	benchtab -exp all            # everything (several minutes)
//	benchtab -exp fig14 -apps apsi,swim -quick
//
// Experiments are sharded into independent jobs (one simulation each) and
// can run on a worker pool; results are bit-identical at any worker count:
//
//	benchtab -exp fig16 -parallel 8          # 8 workers, same numbers
//	benchtab -sweep -parallel 8 -progress    # app × scheme example sweep
//	benchtab -jobs                           # print the sweep's job IDs
//	benchtab -replay '<job-id>'              # re-run one job, bit-exact
//
// Observability, for -sweep and every -exp experiment alike (see
// EXPERIMENTS.md "Profiling a sweep"):
//
//	benchtab -exp fig16 -prof                # sweep-wide latency attribution
//	benchtab -sweep -serve :9090             # live /metrics, /progress, /profile, /debug/pprof/
//	benchtab -exp fig13 -metrics s.jsonl     # every job run's registry + manifest
//	benchtab -replay '<job-id>' -prof        # attribution of one replayed job
//
// Each experiment prints a fixed-width table whose rows correspond to the
// bars/series of the paper's figure; see DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured commentary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"offchip/internal/experiments"
	"offchip/internal/mem"
	"offchip/internal/plane"
	"offchip/internal/prof"
	"offchip/internal/runner"
	"offchip/internal/tracecache"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig3..fig25, table2, figmig, figmix, figtune) or 'all'")
	apps := flag.String("apps", "", "comma-separated application subset (default: all 13)")
	quick := flag.Bool("quick", false, "short traces, capped at 200 accesses per thread (fast smoke run; numbers not meaningful)")
	asJSON := flag.Bool("json", false, "emit JSON instead of tables")
	parallel := flag.Int("parallel", 1, "worker count for job-sharded experiments (results identical at any count)")
	seed := flag.Uint64("seed", 0, "sweep seed; 0 keeps the historical jitter stream of the recorded figures")
	replay := flag.String("replay", "", "re-run one job from its canonical ID and print its outcome")
	sweep := flag.Bool("sweep", false, "run the app × layout-scheme example sweep")
	jobs := flag.Bool("jobs", false, "print the example sweep's job IDs (replay handles) without running")
	progress := flag.Bool("progress", false, "print one line per finished job")
	cacheFlag := flag.String("trace-cache", "", `memoize trace generation across experiments in process: "mem" (the on-disk store is retired; a directory is an error)`)
	migrateFlag := flag.String("migrate", "", `hot-page migration spec for figmig/figmix dynamic and hybrid runs: on | h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>] (default: "on" for figmig; figmix retunes to per-page granularity)`)
	profFlag := flag.Bool("prof", false, "attach the latency-attribution profiler to every job and print the attribution summed over all jobs")
	serveAddr := flag.String("serve", "", "serve the live observability plane (/metrics, /progress, /profile, /debug/pprof/) of every finished job on this address")
	metricsOut := flag.String("metrics", "", "write every finished job run's registry as JSONL, plus a .manifest.json provenance record")
	flag.Parse()
	start := time.Now()

	cfg := experiments.Config{Parallel: *parallel, Seed: *seed, Prof: *profFlag}
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	tc, err := tracecache.Open(*cacheFlag)
	if err != nil {
		fail(err)
	}
	cfg.TraceCache = tc
	if sp, err := mem.ParseMigrationSpec(*migrateFlag); err != nil {
		fail(err)
	} else if sp != nil {
		cfg.Migrate = sp.String()
	}
	if *quick {
		cfg.MaxAccessesPerThread = 200
	}

	switch {
	case *replay != "":
		if err := replayJob(*replay, *profFlag); err != nil {
			fail(err)
		}
		return
	case *jobs:
		specs, err := cfg.ExampleSweep()
		if err != nil {
			fail(err)
		}
		for _, s := range specs {
			fmt.Println(s.ID())
		}
		return
	}

	// The plane records each job ID once per process, however many
	// experiments run it: its profiles, summed per run name, and, for
	// -serve and -metrics, its runs' registries under "<ShortID>/<run>".
	live := plane.New(*parallel)
	keepRuns := *serveAddr != "" || *metricsOut != ""
	cfg.OnJob = func(ev runner.JobEvent) {
		if *progress {
			status := "ok"
			if ev.Err != nil {
				status = "FAIL: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] w%d %6.2fs %s %s\n",
				ev.Done, ev.Total, ev.Worker, float64(ev.WallNS)/1e9, ev.ID, status)
		}
		if ev.Done == 1 {
			live.Start(ev.Total) // exactly one event of each runner sweep
		}
		o := ev.Outcome
		if live.Finish(o.ID, o.Err, o.Profiles) && keepRuns {
			for run, ob := range o.Observers {
				live.Record(o.ShortID+"/"+run, ob.Reg, o.ExecTimes[run])
			}
		}
	}
	if *serveAddr != "" {
		srv, err := plane.NewServer(*serveAddr, live)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "benchtab: observability plane on http://%s\n", srv.Addr())
	}

	if *sweep {
		res, err := experiments.RunSweep(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Table())
		fmt.Printf("[sweep: %d jobs, %d workers, %.1fs]\n",
			len(res.Specs), res.Result.Workers, res.Result.Wall.Seconds())
		fmt.Printf("[total %.1fs; replay any job with -replay '<id>' from -jobs]\n", time.Since(start).Seconds())
	} else {
		ids := []string{*exp}
		if *exp == "all" {
			ids = experiments.AllIDs()
		}
		for _, id := range ids {
			t0 := time.Now()
			if *asJSON {
				raw, err := experiments.RunJSON(id, cfg)
				if err != nil {
					fail(err)
				}
				fmt.Println(string(raw))
				continue
			}
			out, err := experiments.Run(id, cfg)
			if err != nil {
				fail(err)
			}
			fmt.Println(out)
			fmt.Printf("[%s took %.1fs]\n\n", id, time.Since(t0).Seconds())
		}
	}

	if *profFlag {
		fmt.Println()
		prof.PrintAttribution(os.Stdout, os.Stderr, "benchtab", "sweep ", live.Profiles())
	}
	if *metricsOut != "" {
		m := plane.NewManifest(start)
		m.Seed = *seed
		m.Config = map[string]string{
			"apps":     strings.Join(cfg.Apps, ","),
			"cap":      strconv.Itoa(cfg.MaxAccessesPerThread),
			"parallel": strconv.Itoa(cfg.Parallel),
			"prof":     strconv.FormatBool(*profFlag),
		}
		if err := live.WriteMetrics(*metricsOut, m); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "benchtab: wrote every job run's registry to %s (manifest %s)\n",
			*metricsOut, plane.ManifestPath(*metricsOut))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}

// replayJob re-executes one job from its ID and prints the canonical
// (deterministic) outcome — the same bytes the differential tests compare,
// so two replays of the same ID always print identical output. With -prof it
// also prints the job's latency attribution (the profiler observes without
// changing the job's identity or results).
func replayJob(id string, withProf bool) error {
	spec, err := runner.ParseJobID(id)
	if err != nil {
		return err
	}
	spec.Prof = withProf
	out := spec.Execute()
	if out.Err != nil {
		return out.Err
	}
	raw, err := out.CanonicalJSON()
	if err != nil {
		return err
	}
	var pretty map[string]any
	if err := json.Unmarshal(raw, &pretty); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pretty); err != nil {
		return err
	}
	if withProf {
		prof.PrintAttribution(os.Stdout, os.Stderr, "benchtab", "", out.Profiles)
	}
	return nil
}
