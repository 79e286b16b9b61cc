package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"offchip/internal/check"
	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/prof"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// TestCheckerAndProfilerTogether attaches both stream consumers to one run,
// so the stream fans out to two, and requires each to see a clean run: no
// checker or profiler violations, every access's latency fully attributed.
// Observing must not perturb: the Result is byte-identical to the same run
// with nothing attached.
func TestCheckerAndProfilerTogether(t *testing.T) {
	app, ok := workloads.ByName("apsi")
	if !ok {
		t.Fatal("apsi workload missing")
	}
	opt := core.Options{MaxAccessesPerThread: 200}
	cases := []struct {
		name string
		cfg  func(t *testing.T) (sim.Config, *sim.Workload)
	}{
		{"page-migrating", func(t *testing.T) (sim.Config, *sim.Workload) {
			m, cm := pageMachine(t, layout.PrivateL2)
			cfg := core.SimConfig(m, cm, opt)
			cfg.Policy = sim.PolicyFirstTouchNearest
			cfg.Migrate = aggressiveSpec()
			return cfg, baselineWorkload(t, app, m, 200)
		}},
		{"shared-l2", func(t *testing.T) (sim.Config, *sim.Workload) {
			m := layout.Default8x8()
			m.L2 = layout.SharedL2
			cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
			if err != nil {
				t.Fatal(err)
			}
			return core.SimConfig(m, cm, opt), baselineWorkload(t, app, m, 200)
		}},
		{"optimal", func(t *testing.T) (sim.Config, *sim.Workload) {
			m := layout.Default8x8()
			cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.SimConfig(m, cm, opt)
			cfg.OptimalOffchip = true
			return cfg, baselineWorkload(t, app, m, 200)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, w := tc.cfg(t)
			plain, err := sim.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			ck, pf := check.New(), prof.New()
			cfg.Check, cfg.Prof = ck, pf
			observed, err := sim.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Migrate != nil && observed.Migrations == 0 {
				t.Fatal("no migration committed; the migration events went untested")
			}
			for _, v := range ck.Violations() {
				t.Errorf("checker: %v", v)
			}
			p := pf.Profile()
			for _, v := range p.Violations {
				t.Errorf("profiler: %v", v)
			}
			if p.Accesses != observed.Total || p.Attributed() != p.EndToEnd {
				t.Errorf("profiled %d of %d accesses, attributed %d of %d cycles",
					p.Accesses, observed.Total, p.Attributed(), p.EndToEnd)
			}
			want, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(observed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("attaching the checker and the profiler changed the Result")
			}
		})
	}
}
