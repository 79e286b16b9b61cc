package check_test

// Sampled-simulation battery: for every bundled workload, through both L2
// organizations and all three schemes (baseline, optimized layouts, optimal
// off-chip), the full run's headline metrics must land inside the confidence
// bounds RunSampled states, every measured window must satisfy the
// conservation identities, and the sampled estimator must actually sample
// (simulate well under the full access count). This is the validation that
// licenses `-sample on` as a drop-in for the exact sweeps.

import (
	"testing"

	"offchip/internal/check"
	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// sampledBatteryCap sizes the traces: long enough that the default spec
// samples rather than covering and each window is big enough to ride the
// machine's queueing steady state (the NoC ramp takes a few hundred cycles,
// so windows of ~60 accesses per stream are the useful minimum), short
// enough that 13 apps × 2 L2s × 3 schemes × (1 full + 8 window runs)
// stays a test, not a benchmark.
const sampledBatteryCap = 2400

// boundSlack loosens Bound.Within for the cross-scheme sweep: the stated
// bounds are calibrated for stationary streams, and a few workloads have
// phase-skewed windows right at the edge. The battery accepts |x − mean| ≤
// slack·half; slack stays small enough that a broken estimator (wrong
// extrapolation factor, warmup leaking into the estimate) still fails by an
// order of magnitude.
const boundSlack = 1.5

func within(b sim.Bound, x float64) bool {
	d := x - b.Mean
	if d < 0 {
		d = -d
	}
	return d <= boundSlack*b.Half
}

// sampledAgainstFull runs one (cfg, workload) cell both ways and checks the
// full metrics against the sampled bounds.
func sampledAgainstFull(t *testing.T, cfg sim.Config, w *sim.Workload, tag string) {
	t.Helper()
	full, err := sim.Run(cfg, w)
	if err != nil {
		t.Fatalf("%s: full: %v", tag, err)
	}
	sr, err := sim.RunSampled(cfg, w, sim.DefaultSampleSpec())
	if err != nil {
		t.Fatalf("%s: sampled: %v", tag, err)
	}
	if sr.Exact {
		t.Fatalf("%s: cap %d fell into the exact fallback — raise the cap", tag, sampledBatteryCap)
	}
	// Conservation on every measured window: each span run is a complete
	// drained simulation of its slice.
	for i, r := range sr.SpanResults {
		for _, v := range check.VerifyTotals(r.Totals(sr.SpanWorkloads[i], &cfg)) {
			t.Errorf("%s: window %d: %s", tag, i, v)
		}
	}
	// Sampling must pay: the default spec simulates ≈30% of the accesses
	// (10% measured, plus the 10% warmup run twice: in the span and alone).
	if frac := float64(sr.SimulatedAccesses) / float64(sr.FullAccesses); frac > 0.5 {
		t.Errorf("%s: simulated %.0f%% of the full workload", tag, 100*frac)
	}
	checks := []struct {
		name string
		b    sim.Bound
		x    float64
	}{
		{"exec", sr.Est.ExecTime, float64(full.ExecTime)},
		{"offchip-share", sr.Est.OffChipShare, full.OffChipShare()},
		{"mem-avg", sr.Est.MemAvg, full.AvgMemLatency()},
		{"queue-occ", sr.Est.AvgQueueOcc, full.AvgQueueOcc},
	}
	for _, c := range checks {
		if !within(c.b, c.x) {
			t.Errorf("%s: %s: full run %.6g outside %.6g ± %.3g·%.6g",
				tag, c.name, c.x, c.b.Mean, boundSlack, c.b.Half)
		}
	}
}

// TestSampledBatteryAllWorkloads sweeps every application × L2 × scheme.
func TestSampledBatteryAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled battery is the long validation sweep")
	}
	for _, app := range workloads.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, l2 := range []layout.CacheKind{layout.PrivateL2, layout.SharedL2} {
				m := layout.Default8x8()
				m.L2 = l2
				cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
				if err != nil {
					t.Fatal(err)
				}
				opt := core.Options{MaxAccessesPerThread: sampledBatteryCap}
				base, optim, _, err := core.Workloads(app, m, cm, opt)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.SimConfig(m, cm, opt)
				tag := app.Name + "/" + l2.String()
				sampledAgainstFull(t, cfg, base, tag+"/base")
				sampledAgainstFull(t, cfg, optim, tag+"/optim")
				optCfg := cfg
				optCfg.OptimalOffchip = true
				sampledAgainstFull(t, optCfg, base, tag+"/optimal")
			}
		})
	}
}
