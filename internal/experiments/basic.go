package experiments

import (
	"offchip/internal/runner"
	"offchip/internal/stats"
)

// Fig3 reproduces Figure 3: the contribution of off-chip data accesses to
// total data accesses, per application, on the default platform with page
// interleaving and private L2s (the paper reports a 22.4% average of
// dynamic data accesses; our trace-level share counts every reference, so
// we also report the share of cache-level accesses, the more comparable
// number).
func Fig3(cfg Config) (*FigResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeBaseline, variant{spec: runner.JobSpec{Interleave: "page"}})
	if err != nil {
		return nil, err
	}
	f := &FigResult{
		ID:      "Fig3",
		Title:   "off-chip share of data accesses (baseline, page interleaving)",
		Columns: []string{"offchip/total%", "offchip/L2level%"},
	}
	for i, app := range apps {
		r := outs[i].Run
		l2Level := r.Total - r.L1Hits
		share2 := 0.0
		if l2Level > 0 {
			share2 = float64(r.OffChip) / float64(l2Level)
		}
		f.Rows = append(f.Rows, AppRow{App: app.Name, Values: []float64{
			100 * r.OffChipShare(),
			100 * share2,
		}})
	}
	f.finish()
	return f, nil
}

// Fig4 reproduces Figure 4: the impact of the optimal scheme (every
// off-chip request served by the nearest controller with no bank
// contention) on the three latencies and on execution time, under page
// interleaving.
func Fig4(cfg Config) (*FigResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeCompare, variant{spec: runner.JobSpec{Interleave: "page"}})
	if err != nil {
		return nil, err
	}
	f := &FigResult{
		ID:      "Fig4",
		Title:   "optimal scheme vs default (page interleaving)",
		Columns: []string{"onchip-net%", "offchip-net%", "mem%", "exec%"},
	}
	for i, app := range apps {
		c := outs[i].Comparison
		f.Rows = append(f.Rows, AppRow{App: app.Name, Values: []float64{
			100 * stats.Improvement(c.Baseline.OnChipNetAvg, c.Optimal.OnChipNetAvg),
			100 * stats.Improvement(c.Baseline.OffChipNetAvg, c.Optimal.OffChipNetAvg),
			100 * stats.Improvement(c.Baseline.MemAvg, c.Optimal.MemAvg),
			100 * c.OptimalExecImprovement(),
		}})
	}
	f.finish()
	return f, nil
}

// Table2 reproduces Table 2: the percentage of arrays optimized and of
// array references satisfied by the chosen per-array transformations.
// Analysis-only jobs: no traces are generated and no simulation runs.
func Table2(cfg Config) (*FigResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeAnalyze, variant{})
	if err != nil {
		return nil, err
	}
	f := &FigResult{
		ID:      "Table2",
		Title:   "arrays optimized and references satisfied",
		Columns: []string{"arrays%", "refs%"},
	}
	for i, app := range apps {
		a := outs[i].Analysis
		f.Rows = append(f.Rows, AppRow{App: app.Name, Values: []float64{
			a.PctArraysOptimized(), a.PctRefsSatisfied(),
		}})
	}
	f.finish()
	return f, nil
}

// Fig14 reproduces Figure 14: the four improvement metrics under page
// interleaving with the OS-assisted allocation policy.
func Fig14(cfg Config) (*FigResult, error) {
	return improvementSuite(cfg, "Fig14", "improvements under page interleaving",
		runner.JobSpec{Interleave: "page"})
}

// Fig16 reproduces Figure 16: the four improvement metrics under
// cache-line interleaving (the default for the remaining experiments).
func Fig16(cfg Config) (*FigResult, error) {
	return improvementSuite(cfg, "Fig16", "improvements under cache-line interleaving",
		runner.JobSpec{})
}

// Fig22 reproduces Figure 22: the improvements with the L2 space managed
// as a shared SNUCA cache (cache-line interleaving for both L2 home banks
// and main memory).
func Fig22(cfg Config) (*FigResult, error) {
	return improvementSuite(cfg, "Fig22", "improvements with shared (SNUCA) L2",
		runner.JobSpec{L2: "shared"})
}

// Fig23 reproduces Figure 23 (Section 6.3): our scheme (with page
// interleaving and OS-assisted allocation) against the OS first-touch
// policy baseline.
func Fig23(cfg Config) (*FigResult, error) {
	return improvementSuite(cfg, "Fig23", "our scheme vs the first-touch policy",
		runner.JobSpec{Interleave: "page", Policy: "firsttouch"})
}
