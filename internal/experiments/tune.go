package experiments

import (
	"fmt"

	"offchip/internal/mem"
	"offchip/internal/runner"
	"offchip/internal/workloads"
)

// tuneGrid enumerates the migration-spec candidates FigTune sweeps, in
// fixed order: hot-threshold × window × cooldown × cluster granularity,
// with the copy-flit and shootdown cost model held at the defaults. The
// grid spans the regimes the stationary suite and the phase mixes pull
// toward — patient high-threshold long-window specs that sit still on
// stationary apps, and responsive ones that chase a moving hot set.
func tuneGrid() []mem.MigrationSpec {
	var out []mem.MigrationSpec
	for _, thr := range []int{16, 64, 256} {
		for _, win := range []int64{1024, 4096} {
			for _, cool := range []int{2, 8} {
				for _, g := range []int{1, 4} {
					out = append(out, mem.MigrationSpec{
						HotThreshold:    thr,
						WindowCycles:    win,
						CooldownWindows: cool,
						ShootdownCycles: 64,
						ClusterPages:    g,
					})
				}
			}
		}
	}
	return out
}

// tuneWorkload is one column of the FigTune matrix: a stationary
// application (App set) or a phase-changing mix (Mix set).
type tuneWorkload struct {
	name string
	app  string
	mix  string
}

// FigTune is the spec-tuning sweep behind the default migration spec: every
// tuneGrid candidate runs against every workload of the suite (the config's
// applications plus the default phase mixes), and each cell reports the net
// execution-time change of adding migration to the first-touch-nearest
// baseline — positive means migration paid for its copies and shootdowns,
// negative means it thrashed. The trailing "min" column is the
// worst-workload net, the number a default spec must keep non-negative, and
// the title names the grid's winner (highest min, mean as tie-break). All
// jobs are canonical runner jobs, so the sweep shards across workers like
// any other suite.
func FigTune(cfg Config) (*FigResult, error) {
	apps, err := cfg.apps()
	if err != nil {
		return nil, err
	}
	var wls []tuneWorkload
	for _, app := range apps {
		wls = append(wls, tuneWorkload{name: app.Name, app: app.Name})
	}
	for _, mx := range workloads.DefaultPhaseMixes() {
		wls = append(wls, tuneWorkload{name: mx.String(), mix: mx.String()})
	}
	grid := tuneGrid()

	// One first-touch-nearest reference job per workload, then the grid's
	// migrating jobs spec-major: job i·len(wls)+j after the references is
	// grid[i] on wls[j].
	ref := func(w tuneWorkload) runner.JobSpec {
		return cfg.job(runner.JobSpec{Mix: w.mix, Interleave: "page", Policy: "ftnearest"}, runner.ModeBaseline, w.app)
	}
	specs := make([]runner.JobSpec, 0, len(wls)*(len(grid)+1))
	for _, w := range wls {
		specs = append(specs, ref(w))
	}
	for _, g := range grid {
		for _, w := range wls {
			s := ref(w)
			s.Migrate = g.String()
			specs = append(specs, s)
		}
	}
	res, err := cfg.runJobs(specs)
	if err != nil {
		return nil, err
	}

	refT := make([]float64, len(wls))
	for j := range wls {
		refT[j] = float64(res.Outcomes[j].Run.ExecTime)
	}
	f := &FigResult{ID: "figtune"}
	for _, w := range wls {
		f.Columns = append(f.Columns, w.name+" net%")
	}
	f.Columns = append(f.Columns, "min")
	best, bestMin, bestMean := "", 0.0, 0.0
	for i, g := range grid {
		row := AppRow{App: g.String()}
		min, mean := 0.0, 0.0
		for j := range wls {
			o := res.Outcomes[len(wls)+i*len(wls)+j]
			var net float64
			if refT[j] != 0 {
				net = 100 * (refT[j] - float64(o.Run.ExecTime)) / refT[j]
			}
			row.Values = append(row.Values, net)
			mean += net
			if j == 0 || net < min {
				min = net
			}
		}
		mean /= float64(len(wls))
		row.Values = append(row.Values, min)
		f.Rows = append(f.Rows, row)
		if best == "" || min > bestMin || (min == bestMin && mean > bestMean) {
			best, bestMin, bestMean = g.String(), min, mean
		}
	}
	f.Title = fmt.Sprintf("migration-spec tuning sweep, net exec%% of adding migration to ftnearest (best: %s)", best)
	f.finish()
	return f, nil
}
