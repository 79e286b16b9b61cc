package engine

import (
	"math"
	"testing"
)

// funcEvent adapts a test closure to Handler; the tests schedule closures
// through At and After, the production code pooled typed Handlers.
type funcEvent func()

func (f funcEvent) Handle(int64) { f() }

// At schedules fn to run at absolute time t.
func (s *Sim) At(t int64, fn func()) { s.Schedule(t, funcEvent(fn)) }

// After schedules fn to run d cycles from now.
func (s *Sim) After(d int64, fn func()) { s.At(s.now+d, fn) }

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(10, func() { order = append(order, 1) })
	s.At(5, func() { order = append(order, 0) })
	s.At(10, func() { order = append(order, 2) }) // same time: insertion order
	end := s.Run()
	if end != 10 {
		t.Errorf("end = %d", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Sim
	var times []int64
	s.At(3, func() {
		times = append(times, s.Now())
		s.After(4, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 3 || times[1] != 7 {
		t.Errorf("times = %v", times)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var s Sim
	fired := int64(-1)
	s.At(10, func() {
		s.At(5, func() { fired = s.Now() }) // in the past: runs "now"
	})
	s.Run()
	if fired != 10 {
		t.Errorf("past event fired at %d, want 10", fired)
	}
}

func TestPending(t *testing.T) {
	var s Sim
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("Pending after run = %d", s.Pending())
	}
}

func TestResourceReserve(t *testing.T) {
	var r Resource
	if start := r.Reserve(0, 5); start != 0 {
		t.Errorf("first reserve start = %d", start)
	}
	// Contention: second request at t=2 waits until 5.
	if start := r.Reserve(2, 5); start != 5 {
		t.Errorf("contended start = %d, want 5", start)
	}
	// No contention once free.
	if start := r.Reserve(100, 5); start != 100 {
		t.Errorf("idle start = %d, want 100", start)
	}
	if r.BusyTime != 15 {
		t.Errorf("BusyTime = %d", r.BusyTime)
	}
	if r.FreeAt() != 105 {
		t.Errorf("FreeAt = %d", r.FreeAt())
	}
}

// TestOverflowHorizonOrdering pins the wheel/overflow seam: events beyond
// the wheel window must interleave with near events in exact (time, seq)
// order, including ties between an overflow event and a later direct-wheel
// event at the same time.
func TestOverflowHorizonOrdering(t *testing.T) {
	var s Sim
	var order []int
	record := func(id int) func() { return func() { order = append(order, id) } }
	s.At(2*wheelSize+5, record(0)) // far future: overflow heap
	s.At(3*wheelSize, record(1))   // farther
	s.At(1, record(2))             // near: wheel
	s.At(1, func() {
		order = append(order, 3)
		// Scheduled mid-run for the same time an overflow event already
		// occupies: the overflow event has the smaller seq and must run
		// first once the window reaches it.
		s.At(2*wheelSize+5, record(4))
	})
	end := s.Run()
	want := []int{2, 3, 0, 4, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != 3*wheelSize {
		t.Errorf("end = %d, want %d", end, 3*wheelSize)
	}
}

// TestReusedSimKeepsDeterministicOrdering is the regression test for the
// drained-then-reused case: a Sim that ran to completion must accept new
// events, keep its clock monotonic, and preserve (time, seq) ordering —
// recycled Events and a non-zero starting time must not perturb dispatch.
func TestReusedSimKeepsDeterministicOrdering(t *testing.T) {
	var s Sim
	var order []int64
	s.At(40, func() { order = append(order, s.Now()) })
	s.At(7, func() { order = append(order, s.Now()) })
	if end := s.Run(); end != 40 {
		t.Fatalf("first drain ended at %d", end)
	}
	// Reuse: past times clamp to the drained clock, ties keep insert order.
	s.At(5, func() { order = append(order, 1000+s.Now()) })  // clamps to 40
	s.At(40, func() { order = append(order, 2000+s.Now()) }) // same time, later seq
	s.At(90, func() { order = append(order, s.Now()) })
	if end := s.Run(); end != 90 {
		t.Fatalf("second drain ended at %d", end)
	}
	want := []int64{7, 40, 1040, 2040, 90}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Processed() != 5 {
		t.Errorf("processed = %d across reuse, want 5", s.Processed())
	}
}

// countEvent embeds its Event and counts its dispatches.
type countEvent struct {
	Event
	fired []int64
}

func (c *countEvent) Handle(now int64) { c.fired = append(c.fired, now) }

// TestSchedulingAPendingEventPanics: an Event is one queue node, so
// scheduling it again while it is still pending must fail loudly rather
// than relink it into a second bucket (which would corrupt the wheel). The
// refused call leaves the queue as it was, and once dispatched the Event
// may be scheduled again, from its own handler or from outside.
func TestSchedulingAPendingEventPanics(t *testing.T) {
	for _, second := range []int64{5, 7, 3 * wheelSize} { // same bucket, the wheel, the overflow heap
		var s Sim
		e := &countEvent{}
		e.Init(e)
		s.ScheduleEvent(5, &e.Event)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second ScheduleEvent at %d of a pending event did not panic", second)
				}
			}()
			s.ScheduleEvent(second, &e.Event)
		}()
		if s.Pending() != 1 {
			t.Fatalf("pending = %d after the refused call, want 1", s.Pending())
		}
		s.Run()
		if len(e.fired) != 1 || e.fired[0] != 5 {
			t.Fatalf("event fired at %v, want [5]", e.fired)
		}
		s.ScheduleEvent(9, &e.Event) // dispatched: no longer pending
		s.Run()
		if len(e.fired) != 2 || e.fired[1] != 9 {
			t.Fatalf("rescheduled event fired at %v, want [5 9]", e.fired)
		}
	}
}

// TestSeqExhaustionPanics guards the sequence-counter overflow hazard: the
// tie-breaker must never silently wrap (which would corrupt dispatch
// order), so the engine fails hard instead.
func TestSeqExhaustionPanics(t *testing.T) {
	var s Sim
	s.seq = math.MaxInt64
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at an exhausted sequence counter did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		var s Sim
		var log []int64
		for i := int64(0); i < 100; i++ {
			d := (i * 7) % 13
			s.At(d, func() { log = append(log, s.Now()) })
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestProgressCadence pins when OnProgress fires: at exactly the cumulative
// processed counts that are multiples of ProgressEvery, on one Sim reused
// across Runs (the period may change between them), and never without a
// hook or without a positive period.
func TestProgressCadence(t *testing.T) {
	type fired struct{ now, processed int64 }
	// drain schedules n events, each at its own cycle after now, plus a
	// same-cycle follow-up from every third one, and runs them.
	drain := func(s *Sim, n int) {
		base := s.Now()
		for i := 0; i < n; i++ {
			i := i
			s.At(base+int64(i)+1, func() {
				if i%3 == 0 {
					s.After(0, func() {})
				}
			})
		}
		s.Run()
	}
	var s Sim
	var got []fired
	s.OnProgress = func(now, processed int64) {
		if processed != s.Processed() {
			t.Errorf("hook saw processed %d, Processed() = %d", processed, s.Processed())
		}
		got = append(got, fired{now, processed})
	}
	var want []fired
	// expect replays drain's dispatch order: event i at cycle base+i+1, then
	// its follow-up at the same cycle when i%3 == 0.
	expect := func(every int64, n int) {
		base, k := s.Now(), s.Processed()
		for i := 0; i < n; i++ {
			steps := 1
			if i%3 == 0 {
				steps = 2
			}
			for j := 0; j < steps; j++ {
				k++
				if every > 0 && k%every == 0 {
					want = append(want, fired{base + int64(i) + 1, k})
				}
			}
		}
	}
	for _, run := range []struct {
		every int64
		n     int
	}{{4, 10}, {4, 13}, {5, 7}, {0, 9}, {-3, 9}, {7, 20}} {
		s.ProgressEvery = run.every
		expect(run.every, run.n)
		drain(&s, run.n)
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}

	// A positive period without a hook runs clean.
	s.OnProgress = nil
	s.ProgressEvery = 1
	drain(&s, 5)

	// Near the top of the count range: a multiple in range still fires,
	// and one past MaxInt64 never does.
	var top Sim
	var at []int64
	top.OnProgress = func(_, processed int64) { at = append(at, processed) }
	top.ProgressEvery = 1 << 61
	top.processed = 3<<61 - 2
	drain(&top, 4)
	top.ProgressEvery = 1 << 62
	drain(&top, 4)
	if len(at) != 1 || at[0] != 3<<61 {
		t.Errorf("hook fired at %v near MaxInt64, want [%d]", at, int64(3<<61))
	}
}
