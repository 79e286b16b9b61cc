package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"offchip/internal/check"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/prof"
)

func TestParseSampleSpec(t *testing.T) {
	for _, s := range []string{"", "off"} {
		sp, err := ParseSampleSpec(s)
		if err != nil || sp != nil {
			t.Errorf("ParseSampleSpec(%q) = %v, %v; want nil, nil", s, sp, err)
		}
	}
	sp, err := ParseSampleSpec("on")
	if err != nil || sp == nil || *sp != DefaultSampleSpec() {
		t.Fatalf("ParseSampleSpec(on) = %v, %v; want defaults", sp, err)
	}
	manual, err := ParseSampleSpec("w4f0.2u0.5r2")
	if err != nil {
		t.Fatal(err)
	}
	want := SampleSpec{Windows: 4, Fraction: 0.2, WarmupFrac: 0.5, Replicates: 2}
	if *manual != want {
		t.Errorf("manual spec = %+v, want %+v", *manual, want)
	}
	// The canonical string round-trips: parse → String → parse is a fixpoint,
	// so job IDs can embed it verbatim.
	again, err := ParseSampleSpec(manual.String())
	if err != nil || *again != *manual {
		t.Errorf("round trip %q → %+v, %v", manual.String(), again, err)
	}
	if got := DefaultSampleSpec().String(); got != "w4f0.1u1r1" {
		t.Errorf("default spec renders %q", got)
	}

	for _, bad := range []string{
		"x", "w4", "w4f0.2", "w4f0.2u0.5", "wXf0.2u0.5r1", "w4fYu0.5r1",
		"w4f0.2uZr1", "w4f0.2u0.5rW", "w4f1.5u0.5r1", // fraction > 1
	} {
		if sp, err := ParseSampleSpec(bad); err == nil {
			t.Errorf("ParseSampleSpec(%q) accepted: %+v", bad, sp)
		}
	}
}

// TestStreamWindowBounds: for any stream length the window slice must stay in
// bounds, have the promised measured length, and report covered exactly when
// warmup + window span the stream.
func TestStreamWindowBounds(t *testing.T) {
	spec := DefaultSampleSpec()
	for _, n := range []int{1, 2, 5, 17, 100, 1000, 12345} {
		for rep := 0; rep < 2; rep++ {
			for win := 0; win < spec.Windows; win++ {
				start, warm, wlen, covered := spec.streamWindow(n, rep, win)
				if start < 0 || warm < 0 || wlen < 1 || start+warm+wlen > n {
					t.Fatalf("n=%d r%dw%d: slice [%d, +%d+%d) out of bounds", n, rep, win, start, warm, wlen)
				}
				if covered != (warm+wlen >= n) {
					t.Errorf("n=%d r%dw%d: covered=%v with warm=%d wlen=%d", n, rep, win, covered, warm, wlen)
				}
				if covered && (start != 0 || wlen != n) {
					t.Errorf("n=%d r%dw%d: covered window is [%d, +%d), want the whole stream", n, rep, win, start, wlen)
				}
			}
		}
	}
}

// TestSliceStreamPhases: phase markers are remapped into the slice and
// clamped at its edges, preserving monotonicity for the page allocator.
func TestSliceStreamPhases(t *testing.T) {
	st := &Stream{
		Core:   5,
		AppID:  1,
		Phases: []int{0, 3, 8, 10},
		Accesses: []Access{
			{VAddr: 0}, {VAddr: 64}, {VAddr: 128}, {VAddr: 192}, {VAddr: 256},
			{VAddr: 320}, {VAddr: 384}, {VAddr: 448}, {VAddr: 512}, {VAddr: 576},
		},
	}
	out := sliceStream(st, 2, 4) // accesses [2, 6)
	if out.Core != 5 || out.AppID != 1 {
		t.Errorf("header not copied: %+v", out)
	}
	if len(out.Accesses) != 4 || out.Accesses[0].VAddr != 128 {
		t.Errorf("accesses = %+v", out.Accesses)
	}
	// 0→0 (clamped up), 3→1, 8→4 (clamped down), 10→4.
	if want := []int{0, 1, 4, 4}; !reflect.DeepEqual(out.Phases, want) {
		t.Errorf("phases = %v, want %v", out.Phases, want)
	}
	// The slice aliases the source; appending to it must not be possible
	// without reallocating (full-capacity subslice).
	if cap(out.Accesses) != len(out.Accesses) {
		t.Errorf("access slice not capacity-clamped: len %d cap %d", len(out.Accesses), cap(out.Accesses))
	}
}

// sampleWorkload builds a deterministic multi-stream workload large enough
// that the default spec actually samples (does not cover it).
func sampleWorkload(cores, perCore int) *Workload {
	w := &Workload{Name: "sampled"}
	for c := 0; c < cores; c++ {
		st := Stream{Core: c, Phases: []int{0, perCore / 4, perCore / 2, 3 * perCore / 4}}
		for i := 0; i < perCore; i++ {
			// Strided walk with a per-core offset: a stationary stream with
			// plenty of misses, like the array sweeps the generator emits.
			st.Accesses = append(st.Accesses, Access{
				VAddr:     int64(c)*(1<<16) + int64(i)*64%(1<<14),
				DesiredMC: -1,
			})
		}
		w.Streams = append(w.Streams, st)
	}
	return w
}

// TestSampledWindowsKeepTheSchedule: a Sequential workload (a phase mix)
// runs each core's streams one after another, so every window the sampler
// times, span and warm-only alike, must keep that schedule instead of
// time-sharing the core's slices round-robin.
func TestSampledWindowsKeepTheSchedule(t *testing.T) {
	w := sampleWorkload(16, 2000)
	for i := range w.Streams {
		w.Streams[i].Core %= 8 // two streams per core, like a mix's slices
	}
	w.Sequential = true
	span, warm := DefaultSampleSpec().normalized().windowWorkloads(w, 0, 1, 0, &PageMemo{})
	if !span.Sequential || !warm.Sequential {
		t.Errorf("window workloads Sequential = %v (span), %v (warm), want true", span.Sequential, warm.Sequential)
	}
	sr, err := RunSampled(testConfig(t), w, DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Exact {
		t.Fatal("workload not sampled")
	}
	for i, sw := range sr.SpanWorkloads {
		if !sw.Sequential {
			t.Fatalf("span window %d runs round-robin", i)
		}
	}
}

// TestRunSampledExactTinyWorkload: when the windows would cover every stream,
// RunSampled degenerates to one full run with zero-width bounds.
func TestRunSampledExactTinyWorkload(t *testing.T) {
	cfg := testConfig(t)
	w := oneAccess(0, 0)
	full, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunSampled(cfg, w, DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Exact {
		t.Fatal("one-access workload not recognized as exact")
	}
	if sr.Est.ExecTime.Half != 0 || sr.Est.ExecTime.Mean != float64(full.ExecTime) {
		t.Errorf("exact estimate %+v, want exactly %d", sr.Est.ExecTime, full.ExecTime)
	}
	if sr.Aggregate.ExecTime != full.ExecTime || len(sr.SpanResults) != 1 {
		t.Errorf("exact path did not return the full run verbatim")
	}
	if sr.MeasuredAccesses != sr.FullAccesses || sr.SimulatedAccesses != sr.FullAccesses {
		t.Errorf("exact accounting %d/%d measured/simulated, want %d", sr.MeasuredAccesses, sr.SimulatedAccesses, sr.FullAccesses)
	}
}

// TestRunSampledConservation: every span window is a complete drained
// simulation, so the conservation identities hold pairwise — the satellite's
// "sampled totals pass check.VerifyTotals on the measured windows".
func TestRunSampledConservation(t *testing.T) {
	cfg := testConfig(t)
	w := sampleWorkload(16, 2000)
	sr, err := RunSampled(cfg, w, DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Exact {
		t.Fatal("workload too small: exact fallback means the test exercises nothing")
	}
	if len(sr.SpanResults) != 4 || len(sr.SpanWorkloads) != 4 {
		t.Fatalf("got %d span runs, want 4", len(sr.SpanResults))
	}
	for i, r := range sr.SpanResults {
		for _, v := range check.VerifyTotals(r.Totals(sr.SpanWorkloads[i], &cfg)) {
			t.Errorf("window %d: %s", i, v)
		}
	}
	if sr.MeasuredAccesses <= 0 || sr.MeasuredAccesses >= sr.FullAccesses {
		t.Errorf("measured %d of %d accesses", sr.MeasuredAccesses, sr.FullAccesses)
	}
	// Each window runs twice: the span, and its warmup prefixes alone.
	spec := DefaultSampleSpec()
	var want int64
	for win, sw := range sr.SpanWorkloads {
		want += sw.TotalAccesses()
		for i := range w.Streams {
			_, warm, _, _ := spec.streamWindow(len(w.Streams[i].Accesses), 0, win)
			want += int64(warm)
		}
	}
	if sr.SimulatedAccesses != want {
		t.Errorf("simulated %d accesses, want %d (span + warmup-only runs)", sr.SimulatedAccesses, want)
	}
	// Default spec: 10% measured + 10% warmup simulated twice = 30%.
	if frac := float64(sr.SimulatedAccesses) / float64(sr.FullAccesses); frac > 0.31 {
		t.Errorf("simulated %.0f%% of the workload — sampling is not buying wall clock", 100*frac)
	}
}

// TestRunSampledProfilesOneWindow: the profiler attaches to the
// representative span run alone, so a sampled profile is one complete
// window with every cycle attributed — not whichever run bound it last.
func TestRunSampledProfilesOneWindow(t *testing.T) {
	cfg := testConfig(t)
	pf := prof.New()
	cfg.Prof = pf
	sr, err := RunSampled(cfg, sampleWorkload(16, 2000), DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := pf.Profile()
	if want := sr.SpanWorkloads[0].TotalAccesses(); p.Accesses != want {
		t.Errorf("profiled %d accesses, want the representative window's %d", p.Accesses, want)
	}
	if p.Attributed() != p.EndToEnd || len(p.Violations) != 0 {
		t.Errorf("attributed %d of %d cycles, violations %v", p.Attributed(), p.EndToEnd, p.Violations)
	}
}

// TestRunSampledChecksEveryWindow: every window run rebinds the one
// Checker, and a rebind keeps what was recorded before it — here a sentinel
// reported before the sampled run starts.
func TestRunSampledChecksEveryWindow(t *testing.T) {
	cfg := testConfig(t)
	ck := check.New()
	cfg.Check = ck
	ck.Report("sentinel", "recorded before RunSampled")
	if _, err := RunSampled(cfg, sampleWorkload(16, 2000), DefaultSampleSpec()); err != nil {
		t.Fatal(err)
	}
	vs := ck.Violations()
	if len(vs) == 0 || vs[0].Probe != "sentinel" {
		t.Fatalf("the sentinel did not survive the window runs: %v", vs)
	}
	if ck.Count() != 1 {
		t.Errorf("window runs reported violations: %v", vs[1:])
	}
}

// TestRunSampledDeterminism: sampling is as deterministic as the simulator —
// two runs produce bit-identical estimates.
func TestRunSampledDeterminism(t *testing.T) {
	cfg := testConfig(t)
	w := sampleWorkload(8, 1500)
	a, err := RunSampled(cfg, w, DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSampled(cfg, w, DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Est, b.Est) {
		t.Errorf("estimates differ across identical runs:\n%+v\n%+v", a.Est, b.Est)
	}
	if a.MeasuredAccesses != b.MeasuredAccesses || a.Aggregate.ExecTime != b.Aggregate.ExecTime {
		t.Errorf("accounting differs across identical runs")
	}
}

// TestWarmMemoRestoreEqualsReplay: the snapshot-restore fast path of warm
// state (page tables via PageMemo, caches/directory via the per-WarmState
// memo) must be indistinguishable from re-walking preTouch and replaying
// CacheStreams — the estimator's span − warm subtraction relies on the
// two runs of a window starting from identical machine state.
func TestWarmMemoRestoreEqualsReplay(t *testing.T) {
	cfg := testConfig(t)
	// Page interleaving so the run preTouches and the PageMemo layer is
	// exercised alongside the cache/directory memo.
	cfg.Machine.Interleave = layout.PageInterleave
	w := sampleWorkload(8, 1500)
	spec := DefaultSampleSpec()

	// Replay path: fresh WarmState (and no PageMemo) per run.
	span1, _ := spec.windowWorkloads(w, 0, 1, 512, nil)
	fresh, err := Run(cfg, span1)
	if err != nil {
		t.Fatal(err)
	}

	// Memoized path: the first run replays and captures, the second restores.
	span2, _ := spec.windowWorkloads(w, 0, 1, 512, &PageMemo{})
	if _, err := Run(cfg, span2); err != nil {
		t.Fatal(err)
	}
	if span2.Warm.memo == nil || span2.Warm.Pages.spaces == nil {
		t.Fatal("first run did not capture the warm snapshots")
	}
	restored, err := Run(cfg, span2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, restored) {
		t.Errorf("restored-warm run differs from replayed-warm run:\n%+v\n%+v", fresh, restored)
	}
}

// TestRunSampledBoundsCoverFullRun: on a stationary workload the full run's
// headline metrics land inside the stated confidence bounds.
func TestRunSampledBoundsCoverFullRun(t *testing.T) {
	cfg := testConfig(t)
	w := sampleWorkload(16, 2000)
	full, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunSampled(cfg, w, DefaultSampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		b    Bound
		x    float64
	}{
		{"ExecTime", sr.Est.ExecTime, float64(full.ExecTime)},
		{"OffChipShare", sr.Est.OffChipShare, full.OffChipShare()},
		{"MemAvg", sr.Est.MemAvg, full.AvgMemLatency()},
	}
	for _, c := range checks {
		if !c.b.Within(c.x) {
			t.Errorf("%s: full run %.4g outside %.4g ± %.4g", c.name, c.x, c.b.Mean, c.b.Half)
		}
	}
	if rel := sr.Est.ExecTime.RelHalf(); rel < boundRelFloor-1e-12 {
		t.Errorf("ExecTime bound %.3f narrower than the stated floor %.2f", rel, boundRelFloor)
	}
}

// TestMetricSamplesBound: the t-bound math on a known sample set, the
// relative floor taking over when the variance is tiny, and the bias
// allowance taking over when the control runs sit far from the measured
// values.
func TestMetricSamplesBound(t *testing.T) {
	var m metricSamples
	for _, x := range []float64{10, 14, 6, 10} {
		m.add(x)
	}
	b := m.bound()
	if b.Mean != 10 {
		t.Errorf("mean = %v, want 10", b.Mean)
	}
	// sd = sqrt(32/3), stderr = sd/2, t(3) = 3.18 → half ≈ 5.19; the floor
	// 0.3·10 = 3 is smaller, so the t-bound wins.
	want := 3.18 * math.Sqrt(32.0/3.0) / 2
	if math.Abs(b.Half-want) > 1e-9 {
		t.Errorf("half = %v, want %v", b.Half, want)
	}
	var c metricSamples
	for i := 0; i < 8; i++ {
		c.add(100)
	}
	if b := c.bound(); b.Half != boundRelFloor*100 {
		t.Errorf("zero-variance half = %v, want the %v floor", b.Half, boundRelFloor*100)
	}
	// Low variance (t-bound ≈ 1.30) and a floor of 3, but the controls sit
	// 4 and 2 away from the measured values: 2 × mean contrast 3 = 6 wins.
	var d metricSamples
	for _, x := range []float64{10, 11, 9, 10} {
		d.add(x)
	}
	d.addContrast(14, 10)
	d.addContrast(8, 10)
	if b := d.bound(); b.Mean != 10 || b.Half != boundBiasFactor*3 {
		t.Errorf("contrast-dominated bound = %+v, want 10 ± %v", b, boundBiasFactor*3)
	}
	if (metricSamples{}).xs != nil {
		t.Fatal("zero value not empty")
	}
}

// TestAggregateWeighting: aggregate sums counters and weights occupancies
// by time, and takes the distributional metrics from the first run.
func TestAggregateWeighting(t *testing.T) {
	a := &Result{ExecTime: 100, Total: 10, AvgQueueOcc: 2, QueueOcc: []float64{2, 0},
		AccessMap: [][]int64{{1, 2}, {3, 4}}}
	a.NetMsgs[0] = 10
	a.HopCDF[0] = []float64{0.5, 1}
	a.HopCDF[1] = []float64{0, 0} // no class-1 message: the all-zero CDF
	b := &Result{ExecTime: 300, Total: 30, AvgQueueOcc: 4, QueueOcc: []float64{4, 0},
		AccessMap: [][]int64{{5, 6}, {7, 8}}}
	b.NetMsgs[0] = 30
	b.NetMsgs[1] = 5
	b.HopCDF[0] = []float64{0.9, 1}
	b.HopCDF[1] = []float64{0.2, 1}
	agg := aggregate([]*Result{a, b})
	if agg.ExecTime != 400 || agg.Total != 40 || agg.NetMsgs[0] != 40 {
		t.Errorf("sums wrong: %+v", agg)
	}
	// Occupancy: (2·100 + 4·300)/400 = 3.5, time-weighted.
	if math.Abs(agg.AvgQueueOcc-3.5) > 1e-12 || math.Abs(agg.QueueOcc[0]-3.5) > 1e-12 {
		t.Errorf("occupancy = %v / %v, want 3.5", agg.AvgQueueOcc, agg.QueueOcc[0])
	}
	// The hop CDFs and the access map are the first (representative)
	// run's, and a class it sent no message in has no CDF.
	if !reflect.DeepEqual(agg.HopCDF[0], a.HopCDF[0]) || agg.HopCDF[1] != nil {
		t.Errorf("CDFs = %v, want the first run's %v and nil", agg.HopCDF, a.HopCDF[0])
	}
	if !reflect.DeepEqual(agg.AccessMap, a.AccessMap) {
		t.Errorf("access map = %v, want the first run's %v", agg.AccessMap, a.AccessMap)
	}
}

// TestSubClamps: counter differences clamp at zero (FR-FCFS may reorder
// across the warmup cut, making tiny negative deltas possible).
func TestSubClamps(t *testing.T) {
	if sub(5, 3) != 2 || sub(3, 5) != 0 || sub(4, 4) != 0 {
		t.Error("sub misbehaves")
	}
}

// TestRunSampledMigrateFailsFast pins the sampled-x-migration contract:
// window snapshots restore cache and page-table state but carry no Migrator
// state (open-window counters, cooldowns, in-flight remaps), so a sampled
// migrating run would silently measure a different policy than the full run
// it claims to estimate. RunSampled must refuse up front — before any span
// simulation — unless the spec degenerates to windows that cover the whole
// trace, where it falls through to one exact run and migration is
// well-defined again.
func TestRunSampledMigrateFailsFast(t *testing.T) {
	m := layout.Machine{
		MeshX: 4, MeshY: 4,
		NumMCs:     4,
		LineBytes:  64,
		PageBytes:  512,
		L2:         layout.PrivateL2,
		Interleave: layout.PageInterleave, // migration requires page interleave
	}
	cm, err := layout.MappingM1(m, layout.PlacementCorners(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cm)
	cfg.L1Bytes = 1024
	cfg.L2Bytes = 4096
	spec := mem.DefaultMigrationSpec()
	cfg.Migrate = &spec

	w := sampleWorkload(4, 2000)
	if sp := DefaultSampleSpec(); sp.coversAll(w) {
		t.Fatal("workload too small: the default spec covers it, so nothing is refused")
	}
	sr, err := RunSampled(cfg, w, DefaultSampleSpec())
	if err == nil {
		t.Fatalf("RunSampled accepted a migrating run it cannot estimate: %+v", sr)
	}
	if sr != nil {
		t.Errorf("fail-fast returned a partial result alongside the error: %+v", sr)
	}
	if !strings.Contains(err.Error(), "cannot estimate a migrating run") {
		t.Errorf("error does not explain the refusal: %v", err)
	}
	if !strings.Contains(err.Error(), cfg.Migrate.String()) {
		t.Errorf("error does not name the offending spec %s: %v", cfg.Migrate, err)
	}

	// The degenerate covering spec is the documented escape hatch: one
	// window, full fraction, no warmup — RunSampled collapses to a single
	// exact run with the engine attached.
	covering := SampleSpec{Windows: 1, Fraction: 1, WarmupFrac: 0, Replicates: 1}
	sr, err = RunSampled(cfg, w, covering)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Exact {
		t.Error("covering spec did not take the exact path")
	}
	full, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Aggregate.ExecTime != full.ExecTime {
		t.Errorf("exact migrating run diverged: sampled %d, direct %d", sr.Aggregate.ExecTime, full.ExecTime)
	}
}
