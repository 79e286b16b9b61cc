package obs

import "fmt"

// Quantile estimation over fixed-bucket histograms. The profiler's p50/p95/
// p99 latency columns (internal/prof) and any dashboard that needs a
// percentile read it from here, so every consumer interpolates the same way
// and two renderings of one histogram can never disagree.

// ExponentialBuckets returns n bucket bounds start, start·factor,
// start·factor², … — the geometric ladder latency distributions want
// (cycle counts span four orders of magnitude between an L1 hit and a
// congested off-chip access).
func ExponentialBuckets(start, factor int64, n int) []int64 {
	if n <= 0 || start <= 0 || factor < 2 {
		panic("obs: exponential buckets need n > 0, start > 0, factor >= 2")
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// QuantileFromBuckets returns the p-quantile (p in [0,1], clamped) of a
// bucketed distribution, linearly interpolated within the containing
// bucket. bounds are the bucket upper bounds; counts has one extra trailing
// element for the overflow bucket, whose observations are clamped to the
// last bound (the histogram records no upper edge for them). The first
// bucket interpolates from 0. An empty distribution yields 0.
func QuantileFromBuckets(bounds, counts []int64, p float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			break // overflow bucket: clamp to the last bound
		}
		hi := float64(bounds[i])
		lo := float64(0)
		if i > 0 {
			lo = float64(bounds[i-1])
		} else if hi < 0 {
			lo = hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return float64(bounds[len(bounds)-1])
}

// Quantile returns the p-quantile of the observed distribution, linearly
// interpolated within the containing bucket (see QuantileFromBuckets).
// Nil-safe like every histogram method.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	return QuantileFromBuckets(h.bounds, h.Counts(), p)
}

// NewHistogram returns a standalone histogram with the given bucket upper
// bounds, not attached to any registry — the shape profile snapshots use so
// they stay valid after the run's registry is gone.
func NewHistogram(bounds []int64) *Histogram { return newHistogram(bounds) }

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := newHistogram(h.bounds)
	c.Absorb(h)
	return c
}

// Absorb adds src's buckets into h. Bucket bounds must match.
func (h *Histogram) Absorb(src *Histogram) {
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
