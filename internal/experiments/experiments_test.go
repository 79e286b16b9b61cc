package experiments

import (
	"strings"
	"testing"

	"offchip/internal/runner"
)

// fastCfg keeps unit tests quick: two applications, sampled traces. Shape
// tests that depend on cache behavior use fullCfg (and testing.Short
// guards) instead — sampling perturbs reuse.
func fastCfg() Config {
	return Config{Apps: []string{"apsi", "gafort"}, MaxAccessesPerThread: 150}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", fastCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownApp(t *testing.T) {
	cfg := Config{Apps: []string{"equake"}}
	if _, err := Fig16(cfg); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAllIDsRunnable(t *testing.T) {
	ids := AllIDs()
	if len(ids) != 19 {
		t.Fatalf("%d experiment IDs, want 19 (15 paper figures + Table 2 + figmig/figmix/figtune)", len(ids))
	}
}

func TestFigResultHelpers(t *testing.T) {
	f := &FigResult{
		ID: "X", Title: "t",
		Columns: []string{"a", "b"},
		Rows: []AppRow{
			{App: "p", Values: []float64{1, 2}},
			{App: "q", Values: []float64{3, 4}},
		},
	}
	f.finish()
	if f.Average[0] != 2 || f.Average[1] != 3 {
		t.Errorf("averages = %v", f.Average)
	}
	if v, ok := f.Value("q", "b"); !ok || v != 4 {
		t.Errorf("Value = %v %v", v, ok)
	}
	if _, ok := f.Value("q", "zz"); ok {
		t.Error("phantom column found")
	}
	if _, ok := f.Value("zz", "a"); ok {
		t.Error("phantom app found")
	}
	tab := f.Table()
	if !strings.Contains(tab, "AVERAGE") || !strings.Contains(tab, "X: t") {
		t.Errorf("table rendering:\n%s", tab)
	}
}

func TestTable2Spread(t *testing.T) {
	// Layout statistics don't depend on trace length: run the full suite
	// with minimal traces. The suite must show the Table 2 character:
	// affine apps near 100% satisfied, irregular ones clearly below.
	cfg := Config{MaxAccessesPerThread: 1}
	r, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 13 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	get := func(app string) float64 {
		v, ok := r.Value(app, "refs%")
		if !ok {
			t.Fatalf("missing %s", app)
		}
		return v
	}
	for _, affine := range []string{"swim", "mgrid", "apsi", "minighost", "minimd", "hpccg"} {
		if get(affine) < 95 {
			t.Errorf("%s refs satisfied %.0f%%, want >= 95", affine, get(affine))
		}
	}
	for _, irregular := range []string{"gafort", "ammp", "fma3d"} {
		if get(irregular) > 95 {
			t.Errorf("%s refs satisfied %.0f%%, want < 95 (irregular)", irregular, get(irregular))
		}
	}
	// No app at 0 and none above 100.
	for _, row := range r.Rows {
		if row.Values[1] <= 0 || row.Values[1] > 100 {
			t.Errorf("%s refs satisfied %.1f%%", row.App, row.Values[1])
		}
	}
}

func TestFig13Skew(t *testing.T) {
	// The Figure 13 signature: optimized traffic to MC0 comes almost
	// exclusively from MC0's own quadrant; original traffic does not.
	// apsi with full traces (the paper's example application).
	cfg := Config{Apps: []string{"apsi"}}
	r, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.QuadrantShareOptimized < 0.90 {
		t.Errorf("optimized quadrant share = %.2f, want >= 0.90", r.QuadrantShareOptimized)
	}
	if r.QuadrantShareOriginal > 0.60 {
		t.Errorf("original quadrant share = %.2f, want spread-out (< 0.60)", r.QuadrantShareOriginal)
	}
	// Distributions are normalized.
	sum := 0.0
	for _, v := range r.Optimized {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("optimized map sums to %v", sum)
	}
	if !strings.Contains(r.Table(), "per-mille") {
		t.Error("table rendering")
	}
}

func TestFig15CDFShape(t *testing.T) {
	// Figure 15's signature: optimized off-chip requests traverse fewer
	// links — the optimized CDF dominates at low hop counts.
	cfg := Config{Apps: []string{"apsi"}}
	r, err := Fig15(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AtOrBelow(r.OffChipOpt, 4) <= r.AtOrBelow(r.OffChipBase, 4) {
		t.Errorf("off-chip CDF at 4 links: opt %.2f <= base %.2f",
			r.AtOrBelow(r.OffChipOpt, 4), r.AtOrBelow(r.OffChipBase, 4))
	}
	// Monotone non-decreasing, ends at 1.
	for _, series := range [][]float64{r.OnChipBase, r.OnChipOpt, r.OffChipBase, r.OffChipOpt} {
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-1e-9 {
				t.Fatalf("CDF not monotone at %d: %v", i, series)
			}
		}
		if last := series[len(series)-1]; last < 0.999 {
			t.Errorf("CDF tail %v", last)
		}
	}
	if !strings.Contains(r.Table(), "links<=") {
		t.Error("table rendering")
	}
}

// TestFig18SampledRowsAreRunOccupancy pins Figure 18 under sampling to its
// jobs' own results: each row is the optimized job's Run.AvgQueueOcc, the
// measured windows' exec-time-weighted occupancy, not one window's queue
// integral over the whole run's estimated time.
func TestFig18SampledRowsAreRunOccupancy(t *testing.T) {
	cfg := Config{Apps: []string{"apsi", "gafort"}, Sample: "on", Parallel: 2}
	f, err := Fig18(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range cfg.Apps {
		o, err := runner.Replay(cfg.job(runner.JobSpec{}, runner.ModeOptimized, app).ID())
		if err != nil {
			t.Fatal(err)
		}
		if sr := o.Sampled["optimized"]; sr == nil || sr.Exact {
			t.Fatalf("%s: the optimized job did not run sampled", app)
		}
		if got, want := f.Rows[i].Values[0], o.Run.AvgQueueOcc; got != want || want <= 0 {
			t.Errorf("%s: Fig18 row %v, job's Run.AvgQueueOcc %v", app, got, want)
		}
	}
}

func TestFig17ChooserCrossover(t *testing.T) {
	// The compiler analysis must favor M2 exactly for the two high-MLP
	// applications (Section 4: fma3d and minighost).
	cfg := Config{Apps: []string{"swim", "fma3d", "minighost"}, MaxAccessesPerThread: 150}
	r, err := Fig17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		pick := row.Values[2]
		wantM2 := row.App == "fma3d" || row.App == "minighost"
		if (pick == 1) != wantM2 {
			t.Errorf("%s: chooser=M2 is %v", row.App, pick)
		}
	}
}

func TestFig16AppImprovements(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace suite run")
	}
	// The headline result (Figure 16 / the paper's 20.5% average): every
	// application's execution time improves, and the suite average lands
	// in the paper's neighborhood.
	r, err := Fig16(Config{})
	if err != nil {
		t.Fatal(err)
	}
	execCol := len(r.Columns) - 1
	for _, row := range r.Rows {
		if row.Values[execCol] < 0 {
			t.Errorf("%s exec improvement %.1f%% < 0", row.App, row.Values[execCol])
		}
	}
	if avg := r.Average[execCol]; avg < 10 || avg > 35 {
		t.Errorf("average exec improvement %.1f%%, want within [10, 35] (paper: 20.5%%)", avg)
	}
	// Off-chip network latency must improve for every application.
	for _, row := range r.Rows {
		if row.Values[1] <= 0 {
			t.Errorf("%s off-chip net improvement %.1f%% <= 0", row.App, row.Values[1])
		}
	}
}

func TestFig19PlacementsAllImprove(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace run")
	}
	// Figure 19: every placement must show a positive average improvement.
	// (The paper reports P2 slightly best; in our substrate the diamond
	// placement shortens the *baseline's* paths so much that the relative
	// improvement is smaller than P1's — see EXPERIMENTS.md.)
	cfg := Config{Apps: []string{"apsi", "swim", "mgrid"}}
	r, err := Fig19(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range r.Columns {
		if r.Average[i] <= 0 {
			t.Errorf("%s average improvement %.1f%% <= 0", col, r.Average[i])
		}
	}
}

func TestFig25AllMixesImprove(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace run")
	}
	// Full traces, so shard the 15 jobs: results are identical at any
	// worker count.
	r, err := Fig25(Config{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(coRunMixes()) {
		t.Fatalf("%d mixes", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ImprovementP <= 0 {
			t.Errorf("%s weighted speedup regressed: %.1f%%", row.Mix, row.ImprovementP)
		}
		if row.WSBaseline <= 0 || row.WSBaseline > float64(2) {
			t.Errorf("%s baseline WS %.2f out of range", row.Mix, row.WSBaseline)
		}
	}
}
