package experiments

import (
	"offchip/internal/mem"
	"offchip/internal/runner"
)

// migJobsPerRow is the job count FigMig and FigMix enumerate per row, in
// fixed order: the page-interleaved OS-default baseline (the reference
// execution time), the paper's static compiler layout, first-touch-nearest
// (the FCFS placement of the dynamic rival family), dynamic migration on
// top of first-touch-nearest, and the hybrid (compiler layout + residual
// migration).
const migJobsPerRow = 5

// FigMig is the repro's first beyond-the-paper figure: the static
// compiler-directed layout head-to-head against the online placement family
// (first-touch-nearest and window-based hot-page migration, the
// FCFSTranslation/DynamicTranslation3 rivals), plus the hybrid that starts
// from the compiler layout and migrates residual hot pages. All runs use
// page interleaving; exec% columns are execution-time improvement over the
// page-interleaved round-robin baseline, and the migration columns count
// committed page remaps — every one paid for with page-copy flits through
// the NoC and TLB-shootdown stalls (see mem.MigrationSpec).
func FigMig(cfg Config) (*FigResult, error) {
	apps, err := cfg.apps()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(apps))
	for i, app := range apps {
		names[i] = app.Name
	}
	return migrationFigure(cfg, "figmig",
		"static compiler layout vs. online page migration (exec improvement over page-interleaved default)",
		"on", names, false)
}

// migrationFigure runs FigMig's and FigMix's migJobsPerRow jobs for each
// row unit, an application or (mixes set) a phase-changing mix, under
// cfg.Migrate or else defaultMig, and renders one row per unit: the four
// schemes' exec improvement over the baseline and the committed remaps of
// the two migrating runs.
func migrationFigure(cfg Config, id, title, defaultMig string, units []string, mixes bool) (*FigResult, error) {
	mig := cfg.Migrate
	if mig == "" {
		mig = defaultMig
	}
	if _, err := mem.ParseMigrationSpec(mig); err != nil {
		return nil, err
	}
	specs := make([]runner.JobSpec, 0, len(units)*migJobsPerRow)
	for _, unit := range units {
		base := cfg.job(runner.JobSpec{Interleave: "page"}, runner.ModeBaseline, unit)
		if mixes {
			base.App, base.Mix = "", unit
		}
		p2 := base
		p2.Mode = runner.ModeOptimized
		ft := base
		ft.Policy = "ftnearest"
		dyn := ft
		dyn.Migrate = mig
		hyb := p2
		hyb.Migrate = mig
		specs = append(specs, base, p2, ft, dyn, hyb)
	}
	res, err := cfg.runJobs(specs)
	if err != nil {
		return nil, err
	}
	f := &FigResult{
		ID:    id,
		Title: title,
		Columns: []string{
			"static-p2 exec%", "ftnearest exec%", "dynamic exec%", "hybrid exec%",
			"dyn-migs", "hyb-migs",
		},
	}
	for i, unit := range units {
		outs := res.Outcomes[i*migJobsPerRow : (i+1)*migJobsPerRow]
		baseT := float64(outs[0].Run.ExecTime)
		imp := func(o *runner.JobOutcome) float64 {
			if baseT == 0 {
				return 0
			}
			return 100 * (baseT - float64(o.Run.ExecTime)) / baseT
		}
		f.Rows = append(f.Rows, AppRow{App: unit, Values: []float64{
			imp(outs[1]), imp(outs[2]), imp(outs[3]), imp(outs[4]),
			float64(outs[3].Run.Migrations), float64(outs[4].Run.Migrations),
		}})
	}
	f.finish()
	return f, nil
}
