package main

import (
	"fmt"

	"offchip/internal/runner"
	"offchip/internal/workloads"
)

// job is one entry of a workload's job list.
type job struct {
	spec runner.JobSpec
	// base is the index of the job whose baseline run this job's gain is
	// measured against; -1 means the job is a compare job and carries its
	// own baseline, and -2 means the job has no gain.
	base int
	// gain marks the jobs averaged into exec_improvement_pct.
	gain bool
	// paper marks the jobs whose gains are averaged against the paper's
	// headline number for their interleaving (paper_err_pp).
	paper bool
}

// workload is one benchmark input: a job list and whether it runs with an
// in-process trace cache filled during set-up. BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name   string
	cached bool
	// pinned workloads have every job's canonical output pinned in
	// testdata/pins.json.
	pinned bool
	jobs   func(cap int) []job
}

// The paper's average execution-time gains: Figure 16 (cache-line
// interleaving) and Figure 14 (page interleaving).
var paperGain = map[string]float64{"line": 20.5, "page": 17.1}

// sampleSpec is the sampling configuration of the sampled-cold workload.
const sampleSpec = "w4f0.1u1r1"

// mixMigrationSpec is the migration spec the phase-changing mix figure
// runs (the per-page sibling of the default); the per-app figure runs the
// default ("on").
const mixMigrationSpec = "h16w4096c2f0t64"

// sweepApps are the sim-sweep applications: the ablation benchmarks' apsi
// and minighost and four more, 24 jobs, a pass of about 7 s. Each runs
// cache-line interleaved with the ablations' extremes crossed (outstanding
// misses per core 1 or 8, DRAM banks per controller 4 or 16), so four jobs
// share each app's traces. Traced, this grid is the workload that loads the
// DRAM queues (94 cycles of queue wait per request, against 5 for the sweep
// service's example sweep over every other app and 7–26 for the other
// workloads) and bypasses address translation (cpu.mem under 1%, against
// 5% for the example sweep, which runs page interleaving too);
// testdata/example-sweep-traced.json is that run.
var sweepApps = []string{"swim", "mgrid", "apsi", "fma3d", "minighost", "hpccg"}

var benchWorkloads = []workload{
	{
		name:   "paper-cold",
		pinned: true,
		jobs:   func(cap int) []job { return paperJobs(cap, "") },
	},
	{
		name: "sampled-cold",
		jobs: func(cap int) []job { return paperJobs(cap, sampleSpec) },
	},
	{
		name:   "sim-sweep",
		cached: true,
		pinned: true,
		jobs:   sweepJobs,
	},
	{
		name:   "migrate-mix",
		cached: true,
		pinned: true,
		jobs:   migrateJobs,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperJobs lists Figure 16's compare jobs (cache-line interleaving)
// followed by Figure 14's (page interleaving), as cmd/benchtab enumerates
// them.
func paperJobs(cap int, sample string) []job {
	var out []job
	for _, il := range []string{"line", "page"} {
		for _, app := range workloads.Names() {
			out = append(out, job{
				spec: runner.JobSpec{Mode: runner.ModeCompare, App: app, Interleave: il, Cap: cap, Sample: sample},
				base: -1, gain: true, paper: true,
			})
		}
	}
	return out
}

func sweepJobs(cap int) []job {
	var out []job
	for _, app := range sweepApps {
		for _, mlp := range []int{1, 8} {
			for _, banks := range []int{4, 16} {
				out = append(out, job{
					spec: runner.JobSpec{Mode: runner.ModeCompare, App: app, MLPWindow: mlp, BanksPerMC: banks, Cap: cap},
					base: -1, gain: true, paper: true,
				})
			}
		}
	}
	return out
}

// migrateJobs lists FigMix's jobs followed by FigMig's, five per mix or
// app in the figures' order: the page-interleaved baseline, the static
// compiler layout, first-touch-nearest, dynamic migration, and the hybrid.
// The hybrid's gain over the baseline is the workload's gain; the static
// layout's gain on the paper's apps is Figure 14's exec% column.
func migrateJobs(cap int) []job {
	var out []job
	group := func(base runner.JobSpec, mig string, paper bool) {
		b := len(out)
		p2 := base
		p2.Mode = runner.ModeOptimized
		ft := base
		ft.Policy = "ftnearest"
		dyn := ft
		dyn.Migrate = mig
		hyb := p2
		hyb.Migrate = mig
		out = append(out,
			job{spec: base, base: -2},
			job{spec: p2, base: b, paper: paper},
			job{spec: ft, base: -2},
			job{spec: dyn, base: -2},
			job{spec: hyb, base: b, gain: true},
		)
	}
	for _, mx := range workloads.DefaultPhaseMixes() {
		group(runner.JobSpec{Mode: runner.ModeBaseline, Mix: mx.String(), Interleave: "page", Cap: cap}, mixMigrationSpec, false)
	}
	for _, app := range workloads.Names() {
		group(runner.JobSpec{Mode: runner.ModeBaseline, App: app, Interleave: "page", Cap: cap}, "on", true)
	}
	return out
}
