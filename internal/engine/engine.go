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
// overflow until the window reaches it. Event nodes are recycled through a
// free-list and allocated slab-at-a-time, so the steady-state hot loop —
// Schedule of a typed Handler plus its dispatch — performs zero heap
// allocations (the bench-smoke CI gate pins this at 0 allocs/op). The
// dispatch order is bit-for-bit the heap's: (time, insertion sequence),
// with past-time scheduling clamped to now; internal/engine's property
// tests drive both implementations with identical random schedules and
// require identical dispatch logs.
//
// Handler is the only way in: callers keep a pooled event object per
// logical operation and reschedule it stage by stage.
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

	// slabSize is how many queue nodes are allocated at once when the
	// free-list runs dry; after warm-up the free-list satisfies everything.
	slabSize = 256
)

// node is one queued event. Nodes are owned by the Sim, recycled through
// its free-list, and never escape to callers.
type node struct {
	time int64
	seq  int64
	h    Handler
	next *node
}

// bucket is one wheel slot: a FIFO of nodes that all share one event time
// (times within the window map to distinct slots, and appends happen in
// seq order, so FIFO order is (time, seq) order).
type bucket struct {
	head, tail *node
}

// Sim is a discrete-event simulator instance. The zero value is ready to use.
type Sim struct {
	now       int64
	seq       int64
	processed int64
	pending   int

	slots    []bucket         // the calendar, indexed by time & wheelMask
	occ      [occWords]uint64 // occupancy bitmap over slots
	wheelCnt int              // nodes currently in the wheel
	overflow []*node          // (time, seq) min-heap of events beyond the window

	free *node  // recycled nodes
	slab []node // bulk-allocated nodes not yet handed out

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

// Schedule arranges for h.Handle to run at absolute time t. Scheduling in
// the past runs the event at the current time instead (events cannot rewind
// the clock). Events at equal times run in scheduling order — the (time,
// seq) total order every caller's determinism rests on.
func (s *Sim) Schedule(t int64, h Handler) {
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
	n := s.alloc()
	n.time, n.seq, n.h = t, s.seq, h
	s.seq++
	s.pending++
	if t < s.now+wheelSize {
		s.wheelInsert(n)
	} else {
		s.overflowPush(n)
	}
}

// ScheduleAfter arranges for h.Handle to run d cycles from now.
func (s *Sim) ScheduleAfter(d int64, h Handler) { s.Schedule(s.now+d, h) }

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
		n := b.head
		b.head = n.next
		if b.head == nil {
			b.tail = nil
		}
		s.wheelCnt--
		s.pending--
		h := n.h
		s.release(n)
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

// wheelInsert appends n to its bucket's FIFO. Within the window each bucket
// holds exactly one distinct time, so append order is (time, seq) order.
func (s *Sim) wheelInsert(n *node) {
	i := int(n.time & wheelMask)
	b := &s.slots[i]
	if b.tail == nil {
		b.head, b.tail = n, n
		s.occ[i>>6] |= 1 << uint(i&63)
	} else {
		b.tail.next = n
		b.tail = n
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

// overflowPush inserts n into the far-future min-heap ordered by (time, seq).
func (s *Sim) overflowPush(n *node) {
	q := append(s.overflow, n)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nodeLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.overflow = q
}

// overflowPop removes and returns the (time, seq)-minimum far-future event.
func (s *Sim) overflowPop() *node {
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
		if r := l + 1; r < len(q) && nodeLess(q[r], q[l]) {
			m = r
		}
		if !nodeLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.overflow = q
	return top
}

func nodeLess(a, b *node) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// alloc hands out a queue node: free-list first, then the current slab,
// growing the slab only when both are empty (warm steady state never gets
// there).
func (s *Sim) alloc() *node {
	if n := s.free; n != nil {
		s.free = n.next
		n.next = nil
		return n
	}
	if len(s.slab) == 0 {
		s.slab = make([]node, slabSize)
	}
	n := &s.slab[0]
	s.slab = s.slab[1:]
	return n
}

// release recycles a dispatched node, dropping its Handler reference so
// pooled caller events are not retained by the queue.
func (s *Sim) release(n *node) {
	n.h = nil
	n.next = s.free
	s.free = n
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
