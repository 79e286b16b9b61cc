package obs

// FromPoints reconstructs a registry from a Snapshot, inverting it exactly:
// the rebuilt registry's Snapshot (at the same until) is deep-equal to the
// input, and merging it with MergeScoped produces the same result as merging
// the original registry. This is the receiving half of the sweep service's
// worker protocol — a worker process snapshots its per-run registries, ships
// the points as JSON, and the server rebuilds them for incremental
// aggregation into the merged sweep view.
//
// Reconstruction per metric kind:
//
//   - counters restore Value;
//   - time-weighted gauges restore the full (integral, last, current) state
//     from Point.Integral/Last/Value, so any later finalization — at any
//     until — matches the source gauge exactly;
//   - histograms restore bucket bounds, per-bucket counts, sum, and total.
func FromPoints(points []Point) *Registry {
	r := NewRegistry()
	for i := range points {
		p := &points[i]
		labels := make([]string, 0, len(p.Labels))
		for k, v := range p.Labels {
			labels = append(labels, k+"="+v)
		}
		switch p.Type {
		case "counter":
			r.Counter(p.Component, p.Name, labels...).Add(p.Value)
		case "timeweighted":
			tw := r.TimeWeighted(p.Component, p.Name, labels...)
			tw.mu.Lock()
			tw.integral = p.Integral
			tw.last = p.Last
			tw.cur = p.Value
			tw.mu.Unlock()
		case "histogram":
			h := r.Histogram(p.Component, p.Name, p.Buckets, labels...)
			for j, c := range p.Counts {
				if j < len(h.counts) {
					h.counts[j].Add(c)
				}
			}
			h.sum.Add(p.Sum)
			h.total.Add(p.Count)
		}
	}
	return r
}
