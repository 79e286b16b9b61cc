package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"offchip/internal/check"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/prof"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

func setup8x8(t *testing.T) (layout.Machine, *layout.ClusterMapping) {
	t.Helper()
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	return m, cm
}

func quickOpts() Options {
	return Options{} // full traces
}

func TestCompareApsiImproves(t *testing.T) {
	m, cm := setup8x8(t)
	app, _ := workloads.ByName("apsi")
	c, err := Compare(app, m, cm, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("apsi: exec %.1f%%, on-chip net %.1f%%, off-chip net %.1f%%, mem %.1f%% | optimal exec %.1f%%",
		100*c.ExecImprovement(), 100*c.OnChipNetImprovement(),
		100*c.OffChipNetImprovement(), 100*c.MemImprovement(),
		100*c.OptimalExecImprovement())
	if c.ExecImprovement() <= 0 {
		t.Errorf("apsi execution time got worse: %.1f%%", 100*c.ExecImprovement())
	}
	if c.OffChipNetImprovement() <= 0 {
		t.Errorf("off-chip network latency got worse: base %.1f opt %.1f",
			c.Baseline.OffChipNetAvg, c.Optimized.OffChipNetAvg)
	}
	// The compiler result must not beat the optimal scheme's bound by a
	// wide margin (the optimal also removes queueing, so it should win).
	if c.OptimalExecImprovement() <= 0 {
		t.Errorf("optimal scheme got worse than baseline")
	}
	if c.PctArraysOptimized != 100 {
		t.Errorf("apsi arrays optimized = %.0f%%", c.PctArraysOptimized)
	}
}

func TestCompareSharedL2(t *testing.T) {
	m, cm := setup8x8(t)
	m.L2 = layout.SharedL2
	app, _ := workloads.ByName("apsi")
	c, err := Compare(app, m, cm, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("apsi shared L2: exec %.1f%%, off-chip net %.1f%%",
		100*c.ExecImprovement(), 100*c.OffChipNetImprovement())
	if c.ExecImprovement() <= 0 {
		t.Errorf("shared-L2 exec improvement %.1f%%", 100*c.ExecImprovement())
	}
}

func TestComparePageInterleave(t *testing.T) {
	m, cm := setup8x8(t)
	m.Interleave = layout.PageInterleave
	app, _ := workloads.ByName("swim")
	c, err := Compare(app, m, cm, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("swim page interleave: exec %.1f%%, off-chip net %.1f%%",
		100*c.ExecImprovement(), 100*c.OffChipNetImprovement())
	if c.OffChipNetImprovement() <= 0 {
		t.Errorf("page-interleave off-chip net got worse")
	}
}

func TestFirstTouchBaseline(t *testing.T) {
	m, cm := setup8x8(t)
	m.Interleave = layout.PageInterleave
	app, _ := workloads.ByName("apsi")
	opt := quickOpts()
	opt.BaselinePolicy = sim.PolicyFirstTouch
	c, err := Compare(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("apsi vs first-touch: exec %.1f%%", 100*c.ExecImprovement())
	// apsi's transposed accesses confuse first touch: our scheme should win.
	if c.ExecImprovement() <= 0 {
		t.Errorf("compiler scheme lost to first-touch on apsi by %.1f%%", -100*c.ExecImprovement())
	}
}

func TestMetricsSanity(t *testing.T) {
	m, cm := setup8x8(t)
	app, _ := workloads.ByName("swim")
	c, err := Compare(app, m, cm, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for name, mt := range map[string]Metrics{"base": c.Baseline, "opt": c.Optimized} {
		if mt.ExecTime <= 0 {
			t.Errorf("%s: exec time %d", name, mt.ExecTime)
		}
		if mt.OffChipShare <= 0 || mt.OffChipShare > 1 {
			t.Errorf("%s: off-chip share %v", name, mt.OffChipShare)
		}
		if len(mt.AccessMap) != 64 {
			t.Errorf("%s: access map %d nodes", name, len(mt.AccessMap))
		}
		last := mt.HopCDFOff[len(mt.HopCDFOff)-1]
		if last < 0.999 {
			t.Errorf("%s: off-chip hop CDF tail %v", name, last)
		}
	}
}

func TestOptionOverrides(t *testing.T) {
	m, cm := setup8x8(t)
	cfg := SimConfig(m, cm, Options{MLPWindow: 7, BanksPerMC: 4, NoContention: true})
	if cfg.MLPWindow != 7 {
		t.Errorf("MLPWindow = %d", cfg.MLPWindow)
	}
	if cfg.DRAM.BanksPerMC != 4 {
		t.Errorf("BanksPerMC = %d", cfg.DRAM.BanksPerMC)
	}
	if cfg.NoC.Contention {
		t.Error("contention still on")
	}
	// Defaults pass through.
	def := SimConfig(m, cm, Options{})
	if def.MLPWindow != 2 || !def.NoC.Contention {
		t.Errorf("defaults: %+v", def)
	}
	// Shared L2 gets the replication-free capacity benefit.
	ms := m
	ms.L2 = layout.SharedL2
	if got := SimConfig(ms, cm, Options{}).L2Bytes; got <= def.L2Bytes {
		t.Errorf("shared L2 capacity %d <= private %d", got, def.L2Bytes)
	}
}

func TestCompareWithSampledTraces(t *testing.T) {
	// The sampled-trace path must stay wired (smoke tests depend on it).
	m, cm := setup8x8(t)
	app, _ := workloads.ByName("galgel")
	c, err := Compare(app, m, cm, Options{MaxAccessesPerThread: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.Baseline.ExecTime <= 0 || c.Optimized.ExecTime <= 0 {
		t.Error("degenerate sampled run")
	}
}

func TestNoContentionAblation(t *testing.T) {
	// With an ideal network the baseline gets faster; the optimization's
	// benefit must shrink (its biggest lever is contention relief).
	m, cm := setup8x8(t)
	app, _ := workloads.ByName("apsi")
	withC, err := Compare(app, m, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Compare(app, m, cm, Options{NoContention: true})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Baseline.ExecTime >= withC.Baseline.ExecTime {
		t.Errorf("ideal network baseline %d >= contended %d",
			ideal.Baseline.ExecTime, withC.Baseline.ExecTime)
	}
	if ideal.ExecImprovement() >= withC.ExecImprovement() {
		t.Errorf("ideal-network improvement %.1f%% >= contended %.1f%%",
			100*ideal.ExecImprovement(), 100*withC.ExecImprovement())
	}
}

// TestDeterminismConcurrentCompare: Options.Concurrent is purely a
// wall-clock lever. A migrating comparison with a checker and a profiler
// attached to every run gives the same metrics, registry snapshots and
// latency attribution whether its three runs execute concurrently or in
// sequence, and neither order trips an invariant.
func TestDeterminismConcurrentCompare(t *testing.T) {
	m, cm := setup8x8(t)
	m.Interleave = layout.PageInterleave
	app, _ := workloads.ByName("fma3d")
	mig, err := mem.ParseMigrationSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	runs := []string{"baseline", "optimized", "optimal"}
	compare := func(concurrent bool) *Comparison {
		c, err := Compare(app, m, cm, Options{
			MaxAccessesPerThread: 400,
			Migrate:              mig,
			Concurrent:           concurrent,
			Attach: func(_ string, cfg *sim.Config) {
				cfg.Check = check.New()
				cfg.Prof = prof.New()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			if vs := c.Checks[run]; len(vs) != 0 {
				t.Errorf("concurrent=%v %s: %d violations, first %v", concurrent, run, len(vs), vs[0])
			}
			if p := c.Profiles[run]; p == nil || len(p.Violations) != 0 {
				t.Errorf("concurrent=%v %s: profile %v", concurrent, run, p)
			}
		}
		return c
	}
	seq, par := compare(false), compare(true)
	if seq.Baseline.Migrations+seq.Optimized.Migrations == 0 {
		t.Fatal("no run migrated; the migrating path is not exercised")
	}
	until := map[string]int64{
		"baseline": seq.Baseline.ExecTime, "optimized": seq.Optimized.ExecTime, "optimal": seq.Optimal.ExecTime,
	}
	for _, run := range runs {
		a, err := json.Marshal(seq.Observers[run].Reg.Snapshot(until[run]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(par.Observers[run].Reg.Snapshot(until[run]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: registry snapshots differ", run)
		}
		sp, pp := seq.Profiles[run], par.Profiles[run]
		if !reflect.DeepEqual(sp.Comp, pp.Comp) || !reflect.DeepEqual(sp.PerCore, pp.PerCore) {
			t.Errorf("%s: profile components differ: %v vs %v", run, sp.Comp, pp.Comp)
		}
	}
	for _, pair := range []struct {
		run      string
		seq, par Metrics
	}{
		{"baseline", seq.Baseline, par.Baseline},
		{"optimized", seq.Optimized, par.Optimized},
		{"optimal", seq.Optimal, par.Optimal},
	} {
		if !reflect.DeepEqual(pair.seq, pair.par) {
			t.Errorf("%s: concurrent metrics differ:\n seq %+v\n par %+v", pair.run, pair.seq, pair.par)
		}
	}
}
