package dram

import (
	"testing"

	"offchip/internal/engine"
)

type nopCompletion struct{}

func (*nopCompletion) MemDone(int64) {}

// BenchmarkSubmit is a controller's steady state: SubmitTo plus the
// completions it schedules over 16 banks, draining the engine after every
// 16 submits, as the benchmark module's dram_submit measurement does. The
// addresses interleave eight sequential streams, so row hits, misses and
// conflicts all occur. make bench-smoke pins it at 0 allocs/op: requests
// come from the controller's pool and the per-bank queues reuse their
// capacity.
func BenchmarkSubmit(b *testing.B) {
	var s engine.Sim
	cfg := DefaultConfig()
	cfg.RowBytes = 1 << 10
	c := New(0, cfg, &s, nil)
	const streams = 8
	addrs := make([]int64, 4096)
	for i := range addrs {
		k, j := int64(i%streams), int64(i/streams)
		addrs[i] = k*(3<<20) + 64*j
	}
	var done nopCompletion
	run := func(n int) {
		for i := 0; i < n; i++ {
			c.SubmitTo(addrs[i%len(addrs)], &done)
			if i%16 == 15 {
				s.Run()
			}
		}
		s.Run()
	}
	// One pass over the addresses fills the request pool, the queues and
	// the engine's overflow heap to the timed loop's peak.
	run(len(addrs))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
