package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"offchip/internal/check"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/obs"
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

// TestDeterminismConcurrentCompare: Compare runs its three simulations
// concurrently, and the result equals a sequential reference — three
// sim.Run calls, one after another, over the same Workloads with the same
// configurations and policies. A migrating comparison with a checker and a
// profiler attached to every run gives the same metrics, registry
// snapshots and latency attribution both ways, and no run trips an
// invariant.
func TestDeterminismConcurrentCompare(t *testing.T) {
	m, cm := setup8x8(t)
	m.Interleave = layout.PageInterleave
	app, _ := workloads.ByName("fma3d")
	mig, err := mem.ParseMigrationSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		MaxAccessesPerThread: 400,
		Migrate:              mig,
		Attach: func(_ string, cfg *sim.Config) {
			cfg.Check = check.New()
			cfg.Prof = prof.New()
		},
	}
	c, err := Compare(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Baseline.Migrations+c.Optimized.Migrations == 0 {
		t.Fatal("no run migrated; the migrating path is not exercised")
	}

	baseW, optW, _, err := Workloads(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		w    *sim.Workload
		got  Metrics
	}{
		{"baseline", baseW, c.Baseline},
		{"optimized", optW, c.Optimized},
		{"optimal", baseW, c.Optimal},
	} {
		cfg := RunConfig(run.name, m, cm, opt)
		r, err := sim.Run(cfg, run.w)
		if err != nil {
			t.Fatal(err)
		}
		if want := metrics(r.Estimates(), r, r.AppExecTime); !reflect.DeepEqual(run.got, want) {
			t.Errorf("%s: concurrent metrics differ:\n got  %+v\n want %+v", run.name, run.got, want)
		}
		got, err := json.Marshal(c.Observers[run.name].Reg.Snapshot(r.ExecTime))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(cfg.Obs.Reg.Snapshot(r.ExecTime))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: registry snapshots differ", run.name)
		}
		gp, wp := c.Profiles[run.name], cfg.Prof.Profile()
		if gp == nil || len(gp.Violations)+len(wp.Violations) != 0 {
			t.Errorf("%s: profile %v, reference %v", run.name, gp, wp)
		} else if !reflect.DeepEqual(gp, wp) {
			t.Errorf("%s: profiles differ:\n got  %+v\n want %+v", run.name, gp, wp)
		}
		if vs := c.Checks[run.name]; len(vs) != 0 {
			t.Errorf("%s: %d violations, first %v", run.name, len(vs), vs[0])
		}
		if vs := cfg.Check.Violations(); len(vs) != 0 {
			t.Errorf("%s reference: %d violations, first %v", run.name, len(vs), vs[0])
		}
	}
}

// TestComparePanicReraisedAfterOtherRuns: a panic in one of Compare's
// concurrent runs reaches Compare's caller, on the caller's goroutine, with
// its own value — the runner's per-job recover turns it into that job's
// error — and only once the other two runs have returned: their registries
// hold the complete runs of a clean comparison. The optimized run executes
// on a goroutine of its own, the baseline on the caller's.
func TestComparePanicReraisedAfterOtherRuns(t *testing.T) {
	m, cm := setup8x8(t)
	app, _ := workloads.ByName("apsi")
	ref, err := Compare(app, m, cm, Options{MaxAccessesPerThread: 200})
	if err != nil {
		t.Fatal(err)
	}
	until := map[string]int64{
		"baseline": ref.Baseline.ExecTime, "optimized": ref.Optimized.ExecTime, "optimal": ref.Optimal.ExecTime,
	}
	for _, panicking := range []string{"optimized", "baseline"} {
		boom := panicking + " run: progress hook panicked"
		observers := map[string]*obs.Observer{}
		opt := Options{
			MaxAccessesPerThread: 200,
			Attach: func(run string, cfg *sim.Config) {
				cfg.Obs = obs.New()
				observers[run] = cfg.Obs
				if run == panicking {
					cfg.ProgressEvery = 1
					cfg.OnProgress = func(sim.Progress) { panic(boom) }
				}
			},
		}
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("Compare panicked with %v, want %q", r, boom)
				}
			}()
			_, err := Compare(app, m, cm, opt)
			t.Fatalf("Compare returned (err %v) instead of panicking", err)
		}()
		for run, o := range observers {
			if run == panicking {
				continue
			}
			got, err := json.Marshal(o.Reg.Snapshot(until[run]))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ref.Observers[run].Reg.Snapshot(until[run]))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s panicked: the %s registry is not the complete run's", panicking, run)
			}
		}
	}
}

// TestForkJoinFirstPanicInArgumentOrder: forkJoin re-raises the first
// panic in argument order, not the first in time, and only after every
// function has returned.
func TestForkJoinFirstPanicInArgumentOrder(t *testing.T) {
	done := make([]bool, 4)
	twoPanicked, onePanicked := make(chan struct{}), make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "one" {
				t.Fatalf("forkJoin panicked with %v, want %q", r, "one")
			}
		}()
		forkJoin(func() {
			<-twoPanicked
			done[0] = true
		}, func() {
			defer close(onePanicked)
			<-twoPanicked
			done[1] = true
			panic("one")
		}, func() {
			defer close(twoPanicked)
			done[2] = true
			panic("two")
		}, func() {
			<-onePanicked
			runtime.Gosched()
			done[3] = true
		})
		t.Fatal("forkJoin returned instead of panicking")
	}()
	for i, d := range done {
		if !d {
			t.Errorf("function %d had not finished when the panic was re-raised", i)
		}
	}
}
