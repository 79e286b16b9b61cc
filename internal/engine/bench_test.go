package engine

import "testing"

// benchHandler is a self-rescheduling typed event: the steady-state shape of
// the simulator's hot loop (an in-flight access bouncing between substrates).
type benchHandler struct {
	s         *Sim
	remaining int
	delta     int64
}

func (h *benchHandler) Handle(now int64) {
	if h.remaining > 0 {
		h.remaining--
		h.s.Schedule(now+h.delta, h)
	}
}

// benchDelta spreads a handler population over the regimes the simulator
// produces: mostly short cache/NoC latencies inside the wheel window, with
// one in sixteen far enough out to ride the overflow heap.
func benchDelta(i int) int64 {
	if i%16 == 0 {
		return int64(2*wheelSize + 37*i)
	}
	return int64(1 + (i*7)%200)
}

// BenchmarkSteadyStateDispatchTyped is the benchmark the bench-smoke CI gate
// pins at 0 allocs/op: schedule+dispatch of pooled typed events with warm
// free-lists, i.e. the simulator's steady state. If this ever allocates, the
// hot path regressed.
func BenchmarkSteadyStateDispatchTyped(b *testing.B) {
	var s Sim
	const population = 64
	hs := make([]*benchHandler, population)
	for i := range hs {
		hs[i] = &benchHandler{s: &s, delta: benchDelta(i)}
	}
	seed := func(events int) {
		per := events / population
		for i, h := range hs {
			h.remaining = per
			s.Schedule(s.Now()+benchDelta(i), h)
		}
		s.Run()
	}
	seed(4 * population) // warm the node slab, overflow heap, and free-lists
	b.ReportAllocs()
	b.ResetTimer()
	seed(b.N)
}

// benchOracleHandler mirrors benchHandler on the container/heap oracle.
type benchOracleHandler struct {
	s         *heapSim
	remaining int
	delta     int64
}

func (h *benchOracleHandler) Handle(now int64) {
	if h.remaining > 0 {
		h.remaining--
		h.s.Schedule(now+h.delta, h)
	}
}

// BenchmarkSteadyStateDispatchHeapOracle runs the typed workload on the
// original container/heap implementation (the test oracle) — the "before"
// number the timing wheel is measured against.
func BenchmarkSteadyStateDispatchHeapOracle(b *testing.B) {
	s := &heapSim{}
	const population = 64
	hs := make([]*benchOracleHandler, population)
	for i := range hs {
		hs[i] = &benchOracleHandler{s: s, delta: benchDelta(i)}
	}
	seed := func(events int) {
		per := events / population
		for i, h := range hs {
			h.remaining = per
			s.Schedule(s.Now()+benchDelta(i), h)
		}
		s.Run()
	}
	seed(4 * population)
	b.ReportAllocs()
	b.ResetTimer()
	seed(b.N)
}

// BenchmarkScheduleOnly isolates the enqueue cost (free-list pop + wheel or
// overflow insert), draining outside the timed region.
func BenchmarkScheduleOnly(b *testing.B) {
	var s Sim
	h := &benchHandler{s: &s}
	for i := 0; i < b.N; i++ { // warm the slab to this benchmark's peak
		s.Schedule(int64(i%512), h)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+int64(i%512), h)
	}
	b.StopTimer()
	s.Run()
}
