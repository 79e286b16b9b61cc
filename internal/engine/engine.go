// Package engine is a small deterministic discrete-event simulation kernel:
// an event queue ordered by (time, insertion sequence) and a reservation
// resource for modeling contended FIFO hardware (links, ports, banks).
// Determinism matters — two runs of the same workload must produce
// identical statistics — so ties are broken by insertion order, never by
// map iteration or goroutine scheduling.
//
// # Event kernel
//
// The queue is a bucketed calendar (timing wheel) rather than a binary
// heap: times within wheelSize cycles of now live in a circular array of
// FIFO buckets (one distinct time per bucket, found through an occupancy
// bitmap), and only the rare far-future event rides a (time, seq) min-heap
// overflow until the window reaches it. The dispatch order is bit-for-bit
// the heap's: (time, insertion sequence), with past-time scheduling clamped
// to now; internal/engine's property tests drive both implementations with
// identical random schedules and require identical dispatch logs.
//
// An Event is its own queue node. A type scheduled once per stage of a
// long-lived operation (the simulator's in-flight access, a DRAM request)
// embeds an Event, binds it to itself once with Init, and schedules it with
// ScheduleEvent: the wheel and the overflow heap link the embedded Event
// directly, so the hot loop allocates nothing and stores only the event's
// time and sequence number (the bench-smoke CI gate pins 0 allocs/op).
// Schedule takes any Handler and queues it through an Event recycled from
// the Sim's own pool.
package engine

import (
	"math"
	"math/bits"
)

// Handler is a typed event target. Schedule(t, h) arranges for h.Handle(t)
// to run when the simulation clock reaches t. Implementations are typically
// pooled structs that carry their own state and reschedule themselves, so
// the hot loop allocates nothing.
type Handler interface {
	Handle(now int64)
}

const (
	// wheelBits sizes the calendar: the wheel covers [now, now+wheelSize).
	// Simulated latencies (cache, hop, DRAM service) are tens to a few
	// hundred cycles, so 1024 slots keep essentially every event on the
	// no-compare FIFO path; only cross-phase stragglers touch the overflow
	// heap.
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// Event is one queue entry and the queue's own node. Embed it in the
// object it schedules, call Init once with that object, and schedule it
// with Sim.ScheduleEvent. An Event is pending from ScheduleEvent until its
// dispatch begins; scheduling a pending Event panics, so the handler may
// reschedule its own Event from Handle.
type Event struct {
	time   int64
	seq    int64
	next   *Event  // the next Event in its wheel bucket, or in the Sim's pool
	h      Handler // set once by Init, or per use for a pooled Event
	queued bool    // pending: in the wheel or the overflow heap
	pooled bool    // owned by a Sim's pool (Schedule); recycled at dispatch
}

// Init binds the Event to the handler its dispatch calls — typically the
// object it is embedded in.
func (e *Event) Init(h Handler) { e.h = h }

// bucket is one wheel slot: a FIFO of Events that all share one event time
// (times within the window map to distinct slots, and appends happen in
// seq order, so FIFO order is (time, seq) order).
type bucket struct {
	head, tail *Event
}

// Sim is a discrete-event simulator instance. The zero value is ready to use.
type Sim struct {
	now       int64
	seq       int64
	processed int64
	pending   int

	slots    []bucket         // the calendar, indexed by time & wheelMask
	occ      [occWords]uint64 // occupancy bitmap over slots
	wheelCnt int              // Events currently in the wheel
	overflow []*Event         // (time, seq) min-heap of events beyond the window

	free *Event // the pool of Events that carry Schedule's handlers

	// ProgressEvery, when positive, makes Run call OnProgress each time the
	// cumulative processed count reaches a multiple of ProgressEvery — the
	// hook live run reporting hangs off. Run reads both when it starts.
	// OnProgress runs on the simulation goroutine, so it may read simulator
	// state without synchronization.
	ProgressEvery int64
	OnProgress    func(now, processed int64)
	// nextProgress is the processed count of the next OnProgress call. A
	// multiple of ProgressEvery past MaxInt64 wraps negative, which no
	// count reaches.
	nextProgress int64

	// OnDispatch, when set, observes the time of every dispatched event just
	// before its handler runs — the invariant checker's clock-monotonicity
	// probe. Unset costs one nil check per event.
	OnDispatch func(now int64)
}

// Now returns the current simulation time in cycles.
func (s *Sim) Now() int64 { return s.now }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.pending }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() int64 { return s.processed }

// Schedule arranges for h.Handle to run at absolute time t, through an
// Event from the Sim's pool. Scheduling in the past runs the event at the
// current time instead (events cannot rewind the clock). Events at equal
// times run in scheduling order — the (time, seq) total order every
// caller's determinism rests on.
func (s *Sim) Schedule(t int64, h Handler) {
	e := s.free
	if e == nil {
		e = &Event{pooled: true}
	} else {
		s.free = e.next
		e.next = nil
	}
	e.h = h
	s.ScheduleEvent(t, e)
}

// ScheduleEvent arranges for e's handler to run at absolute time t, in the
// same (time, seq) order as Schedule. e must not be pending.
func (s *Sim) ScheduleEvent(t int64, e *Event) {
	if e.queued {
		panic("engine: event scheduled while still pending")
	}
	if s.slots == nil {
		s.slots = make([]bucket, wheelSize)
	}
	if t < s.now {
		t = s.now
	}
	// The sequence counter is the tie-breaker of the (time, seq) total
	// order; it increments once per event and must never wrap. At 2^63
	// events that is centuries of continuous simulation, but a silent wrap
	// would corrupt dispatch order, so it is a hard error instead.
	if s.seq == math.MaxInt64 {
		panic("engine: event sequence counter exhausted")
	}
	e.time, e.seq, e.queued = t, s.seq, true
	s.seq++
	s.pending++
	if t < s.now+wheelSize {
		s.wheelInsert(e)
	} else {
		s.overflowPush(e)
	}
}

// Run processes events until the queue is empty and returns the final time.
func (s *Sim) Run() int64 {
	s.nextProgress = math.MaxInt64
	if s.ProgressEvery > 0 && s.OnProgress != nil {
		s.nextProgress = s.processed - s.processed%s.ProgressEvery + s.ProgressEvery
	}
	for s.pending > 0 {
		var t int64
		if s.wheelCnt > 0 {
			t = s.nextWheelTime()
		} else {
			t = s.overflow[0].time
		}
		s.now = t
		// Pull every overflow event whose time has entered the window
		// [t, t+wheelSize) into the wheel *before* running handlers at t:
		// heap pops arrive in (time, seq) order, and any same-time event a
		// handler schedules directly into the wheel was sequenced later, so
		// FIFO appends keep the total order exact.
		for len(s.overflow) > 0 && s.overflow[0].time < t+wheelSize {
			s.wheelInsert(s.overflowPop())
		}
		s.dispatch(t)
	}
	return s.now
}

// dispatch runs every event at time t, including events for t that handlers
// schedule while t is being dispatched (same-cycle reentrancy appends to
// the same bucket, preserving seq order).
func (s *Sim) dispatch(t int64) {
	i := int(t & wheelMask)
	b := &s.slots[i]
	for b.head != nil && b.head.time == t {
		e := b.head
		if n := e.next; n != nil {
			b.head, e.next = n, nil
		} else {
			b.head, b.tail = nil, nil
		}
		e.queued = false
		s.wheelCnt--
		s.pending--
		h := e.h
		if e.pooled {
			// Drop the handler so the pool retains no caller object.
			e.h = nil
			e.next = s.free
			s.free = e
		}
		if s.OnDispatch != nil {
			s.OnDispatch(t)
		}
		h.Handle(t)
		s.processed++
		if s.processed == s.nextProgress {
			s.nextProgress += s.ProgressEvery
			s.OnProgress(s.now, s.processed)
		}
	}
	if b.head == nil {
		s.occ[i>>6] &^= 1 << uint(i&63)
	}
}

// wheelInsert appends e to its bucket's FIFO. Within the window each bucket
// holds exactly one distinct time, so append order is (time, seq) order.
func (s *Sim) wheelInsert(e *Event) {
	i := int(e.time & wheelMask)
	b := &s.slots[i]
	if b.tail == nil {
		b.head, b.tail = e, e
		s.occ[i>>6] |= 1 << uint(i&63)
	} else {
		b.tail.next = e
		b.tail = e
	}
	s.wheelCnt++
}

// nextWheelTime returns the earliest event time in the wheel by scanning
// the occupancy bitmap circularly from now's slot (all wheel times lie in
// [now, now+wheelSize), so circular slot order is time order).
func (s *Sim) nextWheelTime() int64 {
	i0 := int(s.now & wheelMask)
	w0 := i0 >> 6
	if rest := s.occ[w0] >> uint(i0&63); rest != 0 {
		i := i0 + bits.TrailingZeros64(rest)
		return s.slots[i].head.time
	}
	for k := 1; k <= occWords; k++ {
		w := (w0 + k) & (occWords - 1)
		if s.occ[w] != 0 {
			i := w<<6 + bits.TrailingZeros64(s.occ[w])
			return s.slots[i].head.time
		}
	}
	panic("engine: wheel count positive but no occupied slot")
}

// overflowPush inserts e into the far-future min-heap ordered by (time, seq).
func (s *Sim) overflowPush(e *Event) {
	q := append(s.overflow, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.overflow = q
}

// overflowPop removes and returns the (time, seq)-minimum far-future event.
func (s *Sim) overflowPop() *Event {
	q := s.overflow
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		m := l
		if r := l + 1; r < len(q) && eventLess(q[r], q[l]) {
			m = r
		}
		if !eventLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.overflow = q
	return top
}

func eventLess(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Resource models a FIFO-served hardware resource with a known per-use
// occupancy (a mesh link, a DRAM bank, an MC port). Reserve books the next
// available slot and advances the resource's horizon; it never schedules
// events itself — callers fold the returned start time into their own
// latency computation.
type Resource struct {
	freeAt int64
	// BusyTime accumulates total occupied cycles, for utilization stats.
	BusyTime int64
}

// Reserve books the resource for `occupancy` cycles at the earliest time
// ≥ now, returning the start of the booking.
func (r *Resource) Reserve(now, occupancy int64) (start int64) {
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + occupancy
	r.BusyTime += occupancy
	return start
}

// FreeAt returns the time the resource next becomes free.
func (r *Resource) FreeAt() int64 { return r.freeAt }
