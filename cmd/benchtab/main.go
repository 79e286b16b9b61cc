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
// Sweep observability (see EXPERIMENTS.md "Profiling a sweep"):
//
//	benchtab -sweep -prof                    # sweep-wide latency attribution
//	benchtab -sweep -serve :9090             # live /metrics, /progress, /profile
//	benchtab -sweep -sweep-out s.jsonl       # merged registry dump + manifest
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"offchip/internal/experiments"
	"offchip/internal/mem"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/tracecache"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig3..fig25, table2, figmig, figmix, figtune) or 'all'")
	apps := flag.String("apps", "", "comma-separated application subset (default: all 13)")
	quick := flag.Bool("quick", false, "sampled short traces (fast smoke run; numbers not meaningful)")
	asJSON := flag.Bool("json", false, "emit JSON instead of tables")
	parallel := flag.Int("parallel", 1, "worker count for job-sharded experiments (results identical at any count)")
	seed := flag.Uint64("seed", 0, "sweep seed; 0 keeps the historical jitter stream of the recorded figures")
	replay := flag.String("replay", "", "re-run one job from its canonical ID and print its outcome")
	sweep := flag.Bool("sweep", false, "run the app × layout-scheme example sweep")
	jobs := flag.Bool("jobs", false, "print the example sweep's job IDs (replay handles) without running")
	progress := flag.Bool("progress", false, "print one line per finished job")
	cacheFlag := flag.String("trace-cache", "", `memoize trace generation across experiments: "mem" (in-process) or a directory for a persistent cache`)
	sampleFlag := flag.String("sample", "", `sampled simulation for job-sharded experiments: off | on | w<windows>f<fraction>u<warmup>r<replicates>`)
	migrateFlag := flag.String("migrate", "", `hot-page migration spec for figmig/figmix dynamic and hybrid runs: on | h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>] (default: "on" for figmig; figmix retunes to per-page granularity)`)
	profFlag := flag.Bool("prof", false, "attach the latency-attribution profiler to every job and print the sweep-wide differential attribution")
	serveAddr := flag.String("serve", "", "serve the live sweep observability plane (/metrics, /progress, /profile) on this address")
	sweepOut := flag.String("sweep-out", "", "write the sweep's merged registry as JSONL, plus a .manifest.json provenance record")
	flag.Parse()

	cfg := experiments.Config{Parallel: *parallel, Seed: *seed, Prof: *profFlag}
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	if *cacheFlag != "" {
		dir := *cacheFlag
		if dir == "mem" {
			dir = "" // in-process only
		}
		tc, err := tracecache.New(dir)
		if err != nil {
			fail(err)
		}
		cfg.TraceCache = tc
	}
	if sp, err := sim.ParseSampleSpec(*sampleFlag); err != nil {
		fail(err)
	} else if sp != nil {
		cfg.Sample = sp.String()
	}
	if sp, err := mem.ParseMigrationSpec(*migrateFlag); err != nil {
		fail(err)
	} else if sp != nil {
		cfg.Migrate = sp.String()
	}
	if *quick {
		cfg.MaxAccessesPerThread = 200
	}
	if *progress {
		cfg.OnJob = func(ev runner.JobEvent) {
			status := "ok"
			if ev.Err != nil {
				status = "FAIL: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] w%d %6.2fs %s %s\n",
				ev.Done, ev.Total, ev.Worker, float64(ev.WallNS)/1e9, ev.ID, status)
		}
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
	case *sweep:
		if err := runSweep(cfg, *serveAddr, *sweepOut, *profFlag, *seed); err != nil {
			fail(err)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.AllIDs()
	}
	for _, id := range ids {
		start := time.Now()
		if *asJSON {
			raw, err := experiments.RunJSON(id, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Println(string(raw))
			continue
		}
		out, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}

// runSweep runs the example sweep with the sweep-level observability
// attached: the live HTTP plane (when -serve), the merged-registry dump and
// provenance manifest (when -sweep-out), and the sweep-wide differential
// attribution (when -prof).
func runSweep(cfg experiments.Config, serveAddr, sweepOut string, withProf bool, seed uint64) error {
	specs, err := cfg.ExampleSweep()
	if err != nil {
		return err
	}
	manifest := prof.NewManifest()
	manifest.Seed = seed
	manifest.Config = map[string]string{
		"apps":     strings.Join(cfg.Apps, ","),
		"cap":      strconv.Itoa(cfg.MaxAccessesPerThread),
		"parallel": strconv.Itoa(cfg.Parallel),
		"prof":     strconv.FormatBool(withProf),
	}
	for _, s := range specs {
		manifest.Jobs = append(manifest.Jobs, s.ID())
	}

	// The live plane folds each job's registries and profiles in as the job
	// completes (OnJob calls are serialized by the runner). The registry is
	// safe for concurrent snapshot; profiles are copied out under the mutex.
	var (
		liveMu    sync.Mutex
		liveReg   = obs.NewRegistry()
		liveProfs = map[string]*prof.Profile{}
		liveDone  int
		liveFail  int
	)
	if serveAddr != "" {
		prev := cfg.OnJob
		cfg.OnJob = func(ev runner.JobEvent) {
			if prev != nil {
				prev(ev)
			}
			liveMu.Lock()
			defer liveMu.Unlock()
			liveDone = ev.Done
			if ev.Err != nil {
				liveFail++
			}
			o := ev.Outcome
			if o == nil || o.Err != nil {
				return
			}
			runs := make([]string, 0, len(o.Observers))
			for run := range o.Observers {
				runs = append(runs, run)
			}
			sort.Strings(runs)
			for _, run := range runs {
				if ob := o.Observers[run]; ob != nil && ob.Reg != nil {
					liveReg.MergeScoped(ob.Reg, o.ExecTimes[run], "job="+o.ShortID, "run="+run)
				}
			}
			for run, p := range o.Profiles {
				if liveProfs[run] == nil {
					liveProfs[run] = &prof.Profile{}
				}
				liveProfs[run].Add(p)
			}
		}
		srv, err := prof.NewServer(prof.ServerConfig{
			Addr: serveAddr,
			Registries: func() map[string]*obs.Registry {
				return map[string]*obs.Registry{"sweep": liveReg}
			},
			Profiles: func() map[string]*prof.Profile {
				liveMu.Lock()
				defer liveMu.Unlock()
				out := make(map[string]*prof.Profile, len(liveProfs))
				for run, p := range liveProfs {
					c := &prof.Profile{}
					c.Add(p) // deep copy: the live aggregate keeps mutating
					out[run] = c
				}
				return out
			},
			Progress: func() prof.Progress {
				liveMu.Lock()
				defer liveMu.Unlock()
				inflight := len(specs) - liveDone
				if w := cfg.Parallel; w >= 1 && inflight > w {
					inflight = w
				}
				return prof.Progress{
					TotalJobs: len(specs), DoneJobs: liveDone,
					InFlight: inflight, Failed: liveFail,
				}
			},
		})
		if err != nil {
			return err
		}
		srv.Start()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "benchtab: observability plane on http://%s\n", srv.Addr())
	}

	start := time.Now()
	res, err := experiments.RunSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	fmt.Printf("[sweep: %d jobs, %d workers, %.1fs]\n",
		len(res.Specs), res.Result.Workers, res.Result.Wall.Seconds())
	fmt.Printf("[total %.1fs; replay any job with -replay '<id>' from -jobs]\n", time.Since(start).Seconds())

	if withProf {
		profs := res.Profiles()
		fmt.Println()
		fmt.Println(prof.DiffTable("sweep latency attribution (cycles/access, baseline vs optimized, all jobs)",
			profs["baseline"], profs["optimized"]).String())
		fmt.Println(prof.QuantileTable("sweep optimized-run stage latency quantiles (cycles)",
			profs["optimized"]).String())
		if p := profs["optimized"]; p != nil {
			manifest.StageTotals = p.StageTotals()
		}
	}
	if sweepOut != "" {
		f, err := os.Create(sweepOut)
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(f, res.Merged.Snapshot(0)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := manifest.Write(prof.ManifestPath(sweepOut)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchtab: wrote merged sweep registry to %s (manifest %s)\n",
			sweepOut, prof.ManifestPath(sweepOut))
	}
	return nil
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
		if base, opt := out.Profiles["baseline"], out.Profiles["optimized"]; base != nil && opt != nil {
			fmt.Println(prof.DiffTable("latency attribution (cycles/access, baseline vs optimized)", base, opt).String())
		} else {
			runs := make([]string, 0, len(out.Profiles))
			for run := range out.Profiles {
				runs = append(runs, run)
			}
			sort.Strings(runs)
			for _, run := range runs {
				fmt.Println(prof.AttributionTable("latency attribution: "+run, out.Profiles[run]).String())
			}
		}
	}
	return nil
}
