package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"offchip/internal/obs"
)

// SampleSpec configures SMARTS-style sampled simulation: instead of replaying
// a workload end to end, RunSampled simulates W evenly spaced windows of it,
// each preceded by a warmup prefix that primes caches and page tables, and
// extrapolates every headline metric from the measured windows with a
// confidence bound. Sampling never changes what a window simulates — windows
// replay verbatim slices of the exact streams a full run would — so with
// sampling off (a nil spec) results are bit-identical to the pre-sampling
// code path.
type SampleSpec struct {
	// Windows is the number of measurement windows per run (default 4).
	Windows int
	// Fraction is the measured share of each stream's accesses, spread
	// evenly over the windows (default 0.1).
	Fraction float64
	// WarmupFrac sizes each window's timed warmup prefix relative to its
	// measured length (default 1.0). Warmup accesses are simulated but
	// excluded from the estimates: each window runs twice — warmup+measure
	// and warmup alone — and the measured contribution is the difference.
	// The timed warmup exists to reach the machine's queueing steady state
	// (the NoC runs saturated, and the closed-loop ramp takes a few hundred
	// cycles); cache and page-table state is primed separately by the
	// functional warming pass, which is much cheaper per access.
	WarmupFrac float64
	// Replicates phase-shifts the window grid and pools the windows of all
	// replicates into the estimator (default 1).
	Replicates int
}

// DefaultSampleSpec returns the default sampling configuration ("on").
func DefaultSampleSpec() SampleSpec {
	return SampleSpec{Windows: 4, Fraction: 0.1, WarmupFrac: 1.0, Replicates: 1}
}

func (s SampleSpec) normalized() SampleSpec {
	d := DefaultSampleSpec()
	if s.Windows <= 0 {
		s.Windows = d.Windows
	}
	if s.Fraction <= 0 {
		s.Fraction = d.Fraction
	}
	if s.WarmupFrac < 0 {
		s.WarmupFrac = d.WarmupFrac
	}
	if s.Replicates <= 0 {
		s.Replicates = d.Replicates
	}
	return s
}

// Validate rejects specs that cannot produce a meaningful estimate.
func (s SampleSpec) Validate() error {
	n := s.normalized()
	if n.Fraction > 1 {
		return fmt.Errorf("sim: sample fraction %g > 1", n.Fraction)
	}
	if n.Windows > 1<<20 || n.Replicates > 1<<10 {
		return fmt.Errorf("sim: implausible sample spec %s", n.String())
	}
	return nil
}

// String renders the canonical compact form, e.g. "w4f0.1u1r1". It
// round-trips through ParseSampleSpec, so job IDs embed it verbatim.
func (s SampleSpec) String() string {
	n := s.normalized()
	return fmt.Sprintf("w%df%su%sr%d",
		n.Windows,
		strconv.FormatFloat(n.Fraction, 'g', -1, 64),
		strconv.FormatFloat(n.WarmupFrac, 'g', -1, 64),
		n.Replicates)
}

// ParseSampleSpec parses the compact form. "" and "off" mean no sampling
// (nil); "on" means the defaults.
func ParseSampleSpec(s string) (*SampleSpec, error) {
	switch s {
	case "", "off":
		return nil, nil
	case "on":
		sp := DefaultSampleSpec()
		return &sp, nil
	}
	rest, ok := strings.CutPrefix(s, "w")
	if !ok {
		return nil, fmt.Errorf("sim: sample spec %q: want \"on\", \"off\", or w<n>f<frac>u<warm>r<reps>", s)
	}
	ws, rest, ok := strings.Cut(rest, "f")
	if !ok {
		return nil, fmt.Errorf("sim: sample spec %q lacks the f<fraction> field", s)
	}
	fs, rest, ok := strings.Cut(rest, "u")
	if !ok {
		return nil, fmt.Errorf("sim: sample spec %q lacks the u<warmup> field", s)
	}
	us, rs, ok := strings.Cut(rest, "r")
	if !ok {
		return nil, fmt.Errorf("sim: sample spec %q lacks the r<replicates> field", s)
	}
	var sp SampleSpec
	var err error
	if sp.Windows, err = strconv.Atoi(ws); err != nil {
		return nil, fmt.Errorf("sim: sample windows %q: %w", ws, err)
	}
	if sp.Fraction, err = strconv.ParseFloat(fs, 64); err != nil {
		return nil, fmt.Errorf("sim: sample fraction %q: %w", fs, err)
	}
	if sp.WarmupFrac, err = strconv.ParseFloat(us, 64); err != nil {
		return nil, fmt.Errorf("sim: sample warmup %q: %w", us, err)
	}
	if sp.Replicates, err = strconv.Atoi(rs); err != nil {
		return nil, fmt.Errorf("sim: sample replicates %q: %w", rs, err)
	}
	sp = sp.normalized()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Bound is a point estimate with a symmetric confidence half-width: the
// battery accepts a full-run value x when |x − Mean| ≤ Half.
type Bound struct {
	Mean float64
	Half float64
}

// Within reports whether x falls inside the bound.
func (b Bound) Within(x float64) bool { return math.Abs(x-b.Mean) <= b.Half }

// RelHalf returns Half as a fraction of |Mean| (0 when Mean is 0).
func (b Bound) RelHalf() float64 {
	if b.Mean == 0 {
		return 0
	}
	return b.Half / math.Abs(b.Mean)
}

// SampledEstimates carries one Bound per headline metric (the quantities
// core.Metrics reports), in the order of project's values.
type SampledEstimates struct {
	ExecTime      Bound
	OnChipNetAvg  Bound
	OffChipNetAvg Bound
	MemAvg        Bound
	QueueAvg      Bound
	OffChipShare  Bound
	AvgQueueOcc   Bound
}

func estimatesOf(b [numMetrics]Bound) SampledEstimates {
	return SampledEstimates{
		ExecTime:      b[metricExec],
		OnChipNetAvg:  b[metricOnNet],
		OffChipNetAvg: b[metricOffNet],
		MemAvg:        b[metricMem],
		QueueAvg:      b[metricQueue],
		OffChipShare:  b[metricShare],
		AvgQueueOcc:   b[metricOcc],
	}
}

// ExecCycles returns the exec-time estimate rounded to the nearest cycle:
// the run's ExecTime in core.Metrics and its snapshot horizon in the
// runner.
func (e SampledEstimates) ExecCycles() int64 { return int64(e.ExecTime.Mean + 0.5) }

// SampledResult is the outcome of RunSampled.
type SampledResult struct {
	Spec SampleSpec
	// Exact is set when the spec's windows would cover every stream whole
	// (tiny workloads): the result is then one full run and every bound has
	// Half 0 — sampled equals full by construction.
	Exact bool

	FullAccesses      int64 // accesses of the full workload
	MeasuredAccesses  int64 // Σ measured (span − warmup) accesses
	SimulatedAccesses int64 // Σ accesses actually simulated (span + warmup runs)

	Est SampledEstimates
	// AppExecTime holds each application's exec time: the full run's when
	// Exact, otherwise the one application's rounded exec estimate.
	AppExecTime map[int]int64

	// Aggregate sums the span runs' counters; its distributional metrics
	// (hop CDFs, the node×MC access map), which have no per-window scalar
	// estimator, are the representative first window's. Warmup accesses are
	// included here; their share is WarmupFrac/(1+WarmupFrac).
	Aggregate *Result
	// SpanResults/SpanWorkloads are the measured-window runs and their
	// inputs, in (replicate, window) order — each is a complete drained
	// simulation, so check.VerifyTotals holds on every pair.
	SpanResults   []*Result
	SpanWorkloads []*Workload
}

// streamWindow computes the window-win (of spec.Windows, replicate rep)
// slice bounds for a stream of n accesses: [start, start+warm+wlen), of
// which the first warm accesses are warmup. covered reports whether the
// window spans the whole stream (warm is then 0).
func (s SampleSpec) streamWindow(n, rep, win int) (start, warm, wlen int, covered bool) {
	wlen = int(float64(n)*s.Fraction/float64(s.Windows) + 0.5)
	if wlen < 1 {
		wlen = 1
	}
	warm = int(float64(wlen)*s.WarmupFrac + 0.5)
	if wlen+warm >= n {
		return 0, 0, n, true
	}
	stride := n / s.Windows
	offset := 0
	if s.Replicates > 1 && stride > 0 {
		offset = stride * rep / s.Replicates
	}
	start = win*stride + offset
	if start+warm+wlen > n {
		start = n - warm - wlen
	}
	if start < 0 {
		start = 0
	}
	return start, warm, wlen, false
}

// coversAll reports whether every stream's window spans the whole stream —
// the degenerate case where sampling buys nothing and RunSampled falls back
// to one exact full run.
func (s SampleSpec) coversAll(w *Workload) bool {
	for i := range w.Streams {
		if _, _, _, covered := s.streamWindow(len(w.Streams[i].Accesses), 0, 0); !covered {
			return false
		}
	}
	return true
}

// sliceStream cuts [start, start+length) out of st, remapping every phase
// marker into the slice (clamped), so page allocation still walks phases in
// program order. The slice aliases the original accesses — read-only, like
// any workload shared between runs.
func sliceStream(st *Stream, start, length int) Stream {
	out := Stream{Core: st.Core, AppID: st.AppID}
	out.Accesses = st.Accesses[start : start+length : start+length]
	if len(st.Phases) > 0 {
		out.Phases = make([]int, len(st.Phases))
		for i, ph := range st.Phases {
			p := ph - start
			if p < 0 {
				p = 0
			}
			if p > length {
				p = length
			}
			out.Phases[i] = p
		}
	}
	return out
}

// windowWorkloads builds the two workloads of one (replicate, window)
// cell: span (warmup + measured accesses) and warm (the warmup prefixes
// alone). span − warm isolates the measured window; warm alone is the
// control segment whose distance from the measured values sizes the bias
// allowance in the bounds.
//
// Both keep the full run's schedule (Workload.Sequential, which a
// one-entry phase mix sets: it is one application, so it samples), and
// both share one WarmState: the full workload as the page universe
// (identical page placement to the full run) and, when warmK > 0, up to
// warmK accesses of each stream's pre-window prefix replayed functionally
// so the caches and the directory approximate their mid-run contents. The
// shared state cancels exactly in the span − warm subtraction.
func (s SampleSpec) windowWorkloads(w *Workload, rep, win, warmK int, pages *PageMemo) (span, warm *Workload) {
	span = &Workload{Name: w.Name, Sequential: w.Sequential}
	warm = &Workload{Name: w.Name, Sequential: w.Sequential}
	span.Streams = make([]Stream, len(w.Streams))
	warm.Streams = make([]Stream, len(w.Streams))
	ws := &WarmState{PageUniverse: w, Pages: pages}
	for i := range w.Streams {
		st := &w.Streams[i]
		start, wu, wlen, _ := s.streamWindow(len(st.Accesses), rep, win)
		span.Streams[i] = sliceStream(st, start, wu+wlen)
		warm.Streams[i] = sliceStream(st, start, wu)
		if warmK > 0 && start > 0 {
			from := start - warmK
			if from < 0 {
				from = 0
			}
			ws.CacheStreams = append(ws.CacheStreams, sliceStream(st, from, start-from))
		}
	}
	span.Warm, warm.Warm = ws, ws
	return span, warm
}

// warmDepth is how much trace each window replays functionally before the
// timed run, as a multiple of the machine's total per-core cache lines: deep
// enough to overwrite the (cold) L1, L2 and directory state several times,
// shallow enough that warming stays a small fraction of a full simulation.
const warmDepth = 4

// RunSampled runs the sampled simulation: spec.Replicates × spec.Windows
// measured windows, each simulated twice — warmup+measure (the span) and
// warmup alone — so the difference isolates the measured window's
// contribution to every additive counter. Scalar metrics are estimated as
// the mean over windows with a confidence half-width (metricSamples.bound).
// Every window run carries cfg's Check hook, so the Checker validates all
// of them. The observability sink and the profiler attach to the first span
// run only, and progress callbacks to none: a sampled run has no single
// coherent timeline, and the profile is one complete window. A migrating
// run, or a workload of several applications, is refused unless the spec's
// windows cover every stream, in which case it runs exactly.
func RunSampled(cfg Config, w *Workload, spec SampleSpec) (*SampledResult, error) {
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := checkAddresses(w); err != nil {
		return nil, err
	}
	sr := &SampledResult{Spec: spec, FullAccesses: w.TotalAccesses()}

	covered := spec.coversAll(w)
	if cfg.Migrate != nil && !covered {
		// Window runs restore cache/page snapshots that carry NO Migrator
		// state (open-window counters, cooldowns, in-flight remaps), so a
		// sampled migrating run would silently measure a different policy
		// than the full run it claims to estimate. Fail fast instead; the
		// degenerate spec whose windows cover every stream falls through to
		// one exact full run, where migration is well-defined.
		return nil, fmt.Errorf("sim: sampled simulation cannot estimate a migrating run (mig=%s): window snapshots carry no migration state; run exact (no -sample), or a sample spec whose windows cover the whole trace", cfg.Migrate)
	}
	if a, b, several := twoApps(w); several && !covered {
		// Windows cut every stream at the same fraction of its own length,
		// so applications of different lengths co-run in every window: the
		// windows would measure a different schedule than the full run.
		return nil, fmt.Errorf("sim: sampled simulation cannot estimate a run of several applications (apps %d and %d): every window co-runs them, even where the full run has finished one; run exact (no -sample), or a sample spec whose windows cover the whole trace", a, b)
	}

	if covered {
		r, err := run(cfg, w, nil)
		if err != nil {
			return nil, err
		}
		sr.Exact = true
		sr.MeasuredAccesses = sr.FullAccesses
		sr.SimulatedAccesses = sr.FullAccesses
		sr.Aggregate = r
		sr.SpanResults = []*Result{r}
		sr.SpanWorkloads = []*Workload{w}
		sr.Est = r.Estimates()
		sr.AppExecTime = r.AppExecTime
		return sr, nil
	}

	// Null observer: with no registry, the quiet runs skip building and
	// publishing hundreds of labeled metrics nobody will read.
	quiet := cfg
	quiet.Obs = &obs.Observer{}
	quiet.Prof = nil
	quiet.OnProgress = nil
	quiet.ProgressEvery = 0

	est := &estimator{}
	// Functional cache warming depth: enough pre-window trace to overwrite
	// the cold L1, L2 and directory state several times over.
	var cacheLines float64
	if lb := cfg.Machine.LineBytes; lb > 0 {
		cacheLines = float64(cfg.L1Bytes+cfg.L2Bytes) / float64(lb)
	}
	warmK := int(cacheLines) * warmDepth
	// Every window run shares one page universe and machine config, so the
	// first-touch walk happens once and is snapshot-restored into the rest.
	pages := &PageMemo{}
	for rep := 0; rep < spec.Replicates; rep++ {
		for win := 0; win < spec.Windows; win++ {
			span, warm := spec.windowWorkloads(w, rep, win, warmK, pages)
			runCfg := quiet
			if rep == 0 && win == 0 {
				// One representative window feeds the observability sink
				// and the profiler, and supplies the distributional metrics.
				runCfg.Obs, runCfg.Prof = cfg.Obs, cfg.Prof
			}
			spanR, err := run(runCfg, span, nil)
			if err != nil {
				return nil, fmt.Errorf("sim: sampled window r%dw%d: %w", rep, win, err)
			}
			warmR := &Result{}
			if warm.TotalAccesses() > 0 {
				if warmR, err = run(quiet, warm, nil); err != nil {
					return nil, fmt.Errorf("sim: sampled warmup r%dw%d: %w", rep, win, err)
				}
			}
			sr.SpanResults = append(sr.SpanResults, spanR)
			sr.SpanWorkloads = append(sr.SpanWorkloads, span)
			sr.MeasuredAccesses += span.TotalAccesses() - warm.TotalAccesses()
			sr.SimulatedAccesses += span.TotalAccesses() + warm.TotalAccesses()
			est.addWindow(spanR, warmR, sr.FullAccesses)
		}
	}
	sr.Aggregate = aggregate(sr.SpanResults)
	sr.Est = est.estimates()
	sr.AppExecTime = map[int]int64{w.Streams[0].AppID: sr.Est.ExecCycles()}
	return sr, nil
}

// twoApps returns two distinct application IDs of w's streams, the first
// stream's and the first other one, and whether there are several.
func twoApps(w *Workload) (a, b int, several bool) {
	for i := range w.Streams {
		if id := w.Streams[i].AppID; id != w.Streams[0].AppID {
			return w.Streams[0].AppID, id, true
		}
	}
	return 0, 0, false
}

// estimator holds each headline metric's per-window samples.
type estimator [numMetrics]metricSamples

// sub clamps a counter difference at zero: the warmup-only run is a
// slightly different schedule than the span run's prefix (FR-FCFS may
// reorder across the cut), so tiny negative deltas are possible.
func sub(a, b int64) int64 {
	if a <= b {
		return 0
	}
	return a - b
}

// segment returns the Result of what base ran beyond prefix: every counter
// the projection reads is the clamped difference, and the queue occupancy
// the time-weighted one.
func segment(base, prefix *Result) *Result {
	d := &Result{
		ExecTime:   sub(base.ExecTime, prefix.ExecTime),
		Total:      sub(base.Total, prefix.Total),
		OffChip:    sub(base.OffChip, prefix.OffChip),
		MemLatency: sub(base.MemLatency, prefix.MemLatency),
		MemQueue:   sub(base.MemQueue, prefix.MemQueue),
		MemServed:  sub(base.MemServed, prefix.MemServed),
	}
	for c := range d.NetMsgs {
		d.NetMsgs[c] = sub(base.NetMsgs[c], prefix.NetMsgs[c])
		d.NetLatency[c] = sub(base.NetLatency[c], prefix.NetLatency[c])
	}
	if d.ExecTime > 0 {
		// Time-weighted subtraction: occupancy·time is the additive quantity.
		occ := (base.AvgQueueOcc*float64(base.ExecTime) - prefix.AvgQueueOcc*float64(prefix.ExecTime)) / float64(d.ExecTime)
		if occ < 0 {
			occ = 0
		}
		d.AvgQueueOcc = occ
	}
	return d
}

// addWindow folds one window's measured values, the projection of its
// span − warm segment with the exec time extrapolated to the full run's
// fullAcc accesses, into the samples, and contrasts them against the
// warmup-only run — the control segment, timed from a cold start — to
// size the bias allowance.
func (e *estimator) addWindow(span, warm *Result, fullAcc int64) {
	meas, ctrl := segment(span, warm), segment(warm, &Result{})
	mv, mok := meas.project(float64(meas.Total) / float64(fullAcc))
	cv, cok := ctrl.project(float64(ctrl.Total) / float64(fullAcc))
	for i := range e {
		if !mok[i] {
			continue
		}
		e[i].add(mv[i])
		if cok[i] {
			e[i].addContrast(cv[i], mv[i])
		}
	}
}

func (e *estimator) estimates() SampledEstimates {
	var b [numMetrics]Bound
	for i := range e {
		b[i] = e[i].bound()
	}
	return estimatesOf(b)
}

// boundRelFloor is the relative half-width floor: the window estimator has
// residual bias that neither the across-window variance nor the
// control-segment contrast can see — cut-point reordering, restart stagger,
// and above all queue occupancy that builds over thousands of cycles and is
// flat at window age — so every stated bound is at least this fraction of
// the estimate. The cross-workload battery calibrates the value: sustained
// DRAM-queue excess on periodic traces is the widest blind spot.
const boundRelFloor = 0.3

// boundBiasFactor scales the cold-start allowance. Each window's warmup-only
// run is a fully cold simulation of the same neighborhood, so the gap
// between its metric value and the measured (warmed) value is a direct
// observation of the warming gradient; the residual distance from the
// measured value to steady state is of the same order when the warmup is at
// least window-sized, and the battery validates the resulting bounds against
// full runs across every workload and scheme.
const boundBiasFactor = 2.0

// metricSamples is one metric's per-window sample set plus the control-vs-
// measured contrasts that size its bias allowance.
type metricSamples struct {
	xs        []float64
	contrasts []float64
}

func (m *metricSamples) add(x float64) { m.xs = append(m.xs, x) }

// addContrast records the magnitude of one window's control-vs-measured gap.
func (m *metricSamples) addContrast(ctrl, measured float64) {
	m.contrasts = append(m.contrasts, math.Abs(ctrl-measured))
}

// bound returns mean ± max(t·stderr, bias allowance, relative floor).
func (m *metricSamples) bound() Bound {
	k := len(m.xs)
	if k == 0 {
		return Bound{}
	}
	var mean float64
	for _, x := range m.xs {
		mean += x
	}
	mean /= float64(k)
	var half float64
	if k > 1 {
		var ss float64
		for _, x := range m.xs {
			d := x - mean
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(k-1))
		half = tcrit(k-1) * sd / math.Sqrt(float64(k))
	}
	if len(m.contrasts) > 0 {
		var c float64
		for _, x := range m.contrasts {
			c += x
		}
		if b := boundBiasFactor * c / float64(len(m.contrasts)); b > half {
			half = b
		}
	}
	if fl := boundRelFloor * math.Abs(mean); fl > half {
		half = fl
	}
	return Bound{Mean: mean, Half: half}
}

// tcrit is the two-sided 95% Student-t critical value.
func tcrit(df int) float64 {
	table := []float64{0, 12.71, 4.30, 3.18, 2.78, 2.57, 2.45, 2.36, 2.31, 2.26, 2.23,
		2.20, 2.18, 2.16, 2.14, 2.13}
	if df < len(table) {
		return table[df]
	}
	if df < 30 {
		return 2.09
	}
	return 1.96
}

// aggregate sums span runs into one Result. Counters add and time-averaged
// occupancies combine weighted by exec time; the distributional metrics are
// the representative first run's — its access map, and its hop CDF of each
// class it sent messages in (nil otherwise).
func aggregate(rs []*Result) *Result {
	agg := &Result{AppExecTime: map[int]int64{}, AccessMap: rs[0].AccessMap}
	for cls := 0; cls < 2; cls++ {
		if rs[0].NetMsgs[cls] > 0 {
			agg.HopCDF[cls] = rs[0].HopCDF[cls]
		}
	}
	for _, r := range rs {
		agg.ExecTime += r.ExecTime
		agg.Total += r.Total
		agg.Completed += r.Completed
		agg.L1Hits += r.L1Hits
		agg.L2LocalHits += r.L2LocalHits
		agg.OnChipRemote += r.OnChipRemote
		agg.OffChip += r.OffChip
		agg.Events += r.Events
		agg.MemLatency += r.MemLatency
		agg.MemQueue += r.MemQueue
		agg.MemServed += r.MemServed
		agg.MemSubmitted += r.MemSubmitted
		agg.RowHits += r.RowHits
		agg.PageSpills += r.PageSpills
		for a, t := range r.AppExecTime {
			agg.AppExecTime[a] += t
		}
		for cls := 0; cls < 2; cls++ {
			agg.NetMsgs[cls] += r.NetMsgs[cls]
			agg.NetHops[cls] += r.NetHops[cls]
			agg.NetLatency[cls] += r.NetLatency[cls]
		}
		if r.QueueOcc != nil {
			if agg.QueueOcc == nil {
				agg.QueueOcc = make([]float64, len(r.QueueOcc))
			}
			for mc := range r.QueueOcc {
				agg.QueueOcc[mc] += r.QueueOcc[mc] * float64(r.ExecTime)
			}
		}
		agg.AvgQueueOcc += r.AvgQueueOcc * float64(r.ExecTime)
	}
	if agg.ExecTime > 0 {
		for mc := range agg.QueueOcc {
			agg.QueueOcc[mc] /= float64(agg.ExecTime)
		}
		agg.AvgQueueOcc /= float64(agg.ExecTime)
	}
	return agg
}
