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

// BenchmarkSteadyStateDispatchTyped measures Schedule's pooled path:
// schedule+dispatch of plain Handlers through the Sim's warm Event pool.
// The bench-smoke CI gate pins it at 0 allocs/op.
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
	seed(4 * population) // warm the Event pool and the overflow heap
	b.ReportAllocs()
	b.ResetTimer()
	seed(b.N)
}

// benchAccess is shaped like the simulator's in-flight access: it embeds
// its own Event and carries a stage and per-access state, and its handler
// advances the stage and reschedules the same Event.
type benchAccess struct {
	Event
	s         *Sim
	stage     int8
	core      int
	remaining int
	delta     int64
	t, paddr  int64
}

func (a *benchAccess) Handle(now int64) {
	a.stage = (a.stage + 1) & 7
	a.t = now
	if a.remaining > 0 {
		a.remaining--
		a.s.ScheduleEvent(now+a.delta, &a.Event)
	}
}

// BenchmarkSteadyStateDispatchEmbedded is the simulator's path: schedule
// and dispatch of objects that embed their own Event. The bench-smoke CI
// gate pins it at 0 allocs/op; if it ever allocates, the hot path
// regressed.
func BenchmarkSteadyStateDispatchEmbedded(b *testing.B) {
	var s Sim
	const population = 64
	as := make([]*benchAccess, population)
	for i := range as {
		as[i] = &benchAccess{s: &s, core: i, delta: benchDelta(i)}
		as[i].Init(as[i])
	}
	seed := func(events int) {
		per := events / population
		for i, a := range as {
			a.remaining = per
			s.ScheduleEvent(s.Now()+benchDelta(i), &a.Event)
		}
		s.Run()
	}
	seed(4 * population) // warm the overflow heap
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

// BenchmarkScheduleOnly isolates Schedule's enqueue cost (Event pool pop +
// wheel or overflow insert), draining outside the timed region.
func BenchmarkScheduleOnly(b *testing.B) {
	var s Sim
	h := &benchHandler{s: &s}
	for i := 0; i < b.N; i++ { // warm the pool to this benchmark's peak
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
