package obs

import (
	"fmt"
	"sort"
)

// Registry merging is what makes sharded runs first-class: the parallel
// experiment runner gives every job a private registry (so concurrent
// simulations never contend or interleave), then folds all of them into one
// merged registry after the jobs finish. Merging in job order is
// deterministic — the merged snapshot of a parallel run is byte-identical
// to that of a sequential run over the same jobs.
//
// Merge semantics per metric kind:
//
//   - counters add;
//   - histograms add bucket-wise (bounds must match when keys collide);
//   - time-weighted gauges are *finalized* at the until time passed to the
//     merge — the integral is closed out over [0, until] and absorbed, so
//     Avg(until) on the merged gauge reproduces the source gauge's
//     time-average exactly.
//
// MergeScoped additionally rewrites every key with extra labels (e.g.
// job=<id>, run=optimized), keeping per-job values addressable in the
// merged view; Merge with no scope collapses same-keyed metrics across
// sources into aggregate totals.

// finalized returns the gauge's integral closed out at until (extending the
// current level), without mutating the gauge.
func (g *TimeWeighted) finalized(until int64) int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if until < g.last {
		until = g.last
	}
	return g.integral + g.cur*(until-g.last)
}

// absorbIntegral adds a finalized integral covering [0, until] into the
// gauge without altering its current level.
func (g *TimeWeighted) absorbIntegral(integral, until int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.integral += integral
	if until > g.last {
		g.last = until
	}
	g.mu.Unlock()
}

// absorb adds src's buckets into h. Bucket bounds must match.
func (h *Histogram) absorb(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	if len(h.bounds) != len(src.bounds) {
		panic(fmt.Sprintf("obs: merging histograms with %d vs %d buckets", len(h.bounds), len(src.bounds)))
	}
	for i, b := range h.bounds {
		if b != src.bounds[i] {
			panic(fmt.Sprintf("obs: merging histograms with different bounds at %d (%d vs %d)", i, b, src.bounds[i]))
		}
	}
	for i := range src.counts {
		h.counts[i].Add(src.counts[i].Load())
	}
	h.sum.Add(src.sum.Load())
	h.total.Add(src.total.Load())
}

// sortedMetrics returns the registry's metrics in canonical key order.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*metric, len(keys))
	for i, k := range keys {
		out[i] = r.metrics[k]
	}
	return out
}

// MergeScoped folds every metric of src into r, adding the scope labels
// ("k=v" pairs) to each key. until is src's run end time, used to finalize
// time-weighted gauges (pass the run's ExecTime; 0 is fine when none are
// registered). src is not modified.
func (r *Registry) MergeScoped(src *Registry, until int64, scope ...string) {
	if r == nil || src == nil {
		return
	}
	for _, m := range src.sortedMetrics() {
		labels := make([]string, 0, len(m.labels)+len(scope))
		for k, v := range m.labels {
			labels = append(labels, k+"="+v)
		}
		labels = append(labels, scope...)
		switch m.kind {
		case "counter":
			r.Counter(m.component, m.name, labels...).Add(m.counter.Value())
		case "timeweighted":
			r.TimeWeighted(m.component, m.name, labels...).absorbIntegral(m.tw.finalized(until), until)
		case "histogram":
			r.Histogram(m.component, m.name, m.hist.Bounds(), labels...).absorb(m.hist)
		}
	}
}

// Merge folds src into r without rescoping: same-keyed metrics aggregate.
func (r *Registry) Merge(src *Registry, until int64) {
	r.MergeScoped(src, until)
}
