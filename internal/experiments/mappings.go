package experiments

import (
	"fmt"

	"offchip/internal/layout"
	"offchip/internal/runner"
)

// Fig17 reproduces Figure 17: execution time improvement under the two
// L2-to-MC mappings of Figure 8 (M1: one controller per quadrant; M2: two
// controllers per half). The paper's crossover — only the high-MLP
// applications fma3d and minighost prefer M2 — is also checked by the
// compiler analysis column (the chooser's pick).
func Fig17(cfg Config) (*FigResult, error) {
	variants := []variant{
		{"M1", runner.JobSpec{Mapping: "m1"}},
		{"M2", runner.JobSpec{Mapping: "m2"}},
	}
	f, err := execSuite(cfg, "Fig17", "L2-to-MC mapping M1 vs M2", variants)
	if err != nil {
		return nil, err
	}
	// Third column: 1 when the compiler analysis of Section 4 picks M2.
	// The chooser consumes only the static demand profile, so this column
	// needs no simulation jobs.
	var mappings []*layout.ClusterMapping
	for _, v := range variants {
		_, cm, _, err := v.spec.Build()
		if err != nil {
			return nil, err
		}
		mappings = append(mappings, cm)
	}
	f.Columns = append(f.Columns, "chooser=M2")
	apps, _ := cfg.apps()
	for i, app := range apps {
		v := 0.0
		if layout.ChooseMapping(mappings, app.Demand, 4) == mappings[1] {
			v = 1
		}
		f.Rows[i].Values = append(f.Rows[i].Values, v)
	}
	f.finish()
	return f, nil
}

// Fig18 reproduces Figure 18: bank queue utilization (time-averaged queue
// occupancy, averaged over the controllers) per application under mapping
// M1, which explains why fma3d and minighost prefer M2. Each row is its
// optimized job's Run.AvgQueueOcc; under sampling that is the measured
// windows' exec-time-weighted occupancy.
func Fig18(cfg Config) (*FigResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeOptimized, variant{})
	if err != nil {
		return nil, err
	}
	f := &FigResult{
		ID:      "Fig18",
		Title:   "bank queue occupancy under M1 (optimized runs)",
		Columns: []string{"queue-occupancy"},
	}
	for i, app := range apps {
		f.Rows = append(f.Rows, AppRow{App: app.Name,
			Values: []float64{outs[i].Run.AvgQueueOcc}})
	}
	f.finish()
	return f, nil
}

// Fig19 reproduces Figure 19: execution time improvement under the three
// memory controller placements (P1 corners, P2 diamond, P3 top/bottom).
func Fig19(cfg Config) (*FigResult, error) {
	return execSuite(cfg, "Fig19", "MC placements P1/P2/P3", []variant{
		{"P1-corners", runner.JobSpec{Placement: "corners"}},
		{"P2-diamond", runner.JobSpec{Placement: "diamond"}},
		{"P3-topbottom", runner.JobSpec{Placement: "topbottom"}},
	})
}

// Fig20 reproduces Figure 20: execution time improvement as the memory
// controller count grows (4, 8, 16 controllers around the perimeter, one
// per cluster as in Figure 27).
func Fig20(cfg Config) (*FigResult, error) {
	var variants []variant
	for _, n := range []int{4, 8, 16} {
		variants = append(variants, variant{
			fmt.Sprintf("%dMC", n),
			runner.JobSpec{Placement: "perimeter", NumMCs: n},
		})
	}
	return execSuite(cfg, "Fig20", "memory controller counts", variants)
}

// Fig21 reproduces Figure 21: execution time improvement on 4×4, 4×8, and
// 8×8 meshes (four corner controllers each).
func Fig21(cfg Config) (*FigResult, error) {
	var variants []variant
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {8, 8}} {
		variants = append(variants, variant{
			fmt.Sprintf("%dx%d", dims[0], dims[1]),
			runner.JobSpec{MeshX: dims[0], MeshY: dims[1]},
		})
	}
	return execSuite(cfg, "Fig21", "mesh sizes", variants)
}
