package obs

import "testing"

// BenchmarkCounterAdd measures the registry counter hot path (one atomic
// add), the cost every always-on metric pays.
func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench", "counter")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkHistogramObserve measures a hop-histogram observation.
func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench", "hist", LinearBuckets(0, 1, 16))
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 15))
	}
}
