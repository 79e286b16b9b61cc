package obs

import (
	"strconv"
	"testing"
)

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

// BenchmarkRegister measures one run's registration: a fresh registry takes
// the label shapes the simulator registers (one label per cache and DRAM
// counter, two per link and per node-controller pair), about 1,000
// counters.
func BenchmarkRegister(b *testing.B) {
	var node, mc, from, to [64]string
	for i := range node {
		node[i], mc[i] = "node="+strconv.Itoa(i), "mc="+strconv.Itoa(i)
		from[i], to[i] = "from="+strconv.Itoa(i), "to="+strconv.Itoa(i)
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		reg := NewRegistry()
		for i := range node {
			for _, name := range []string{"hits", "misses", "evictions", "served", "row_hits"} {
				reg.Counter("c", name, node[i])
			}
			for d := 0; d < 4; d++ {
				reg.Counter("sim", "offchip_requests", node[i], mc[d])
				reg.Counter("noc", "link_traversals", from[i], to[(i+d)%64])
			}
		}
	}
}
