package engine

import "container/heap"

// heapSim is the original container/heap event queue this package shipped
// with, kept verbatim as a test-only oracle: the timing-wheel scheduler must
// reproduce its dispatch order — (time, insertion sequence), with past-time
// clamping — bit for bit. The property tests drive both implementations with
// identical schedules and require identical dispatch logs.
type heapSim struct {
	now int64
	seq int64
	pq  oracleQueue
}

type oracleEvent struct {
	time int64
	seq  int64
	h    Handler
}

type oracleQueue []oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (s *heapSim) Now() int64 { return s.now }

func (s *heapSim) Schedule(t int64, h Handler) {
	if t < s.now {
		t = s.now
	}
	heap.Push(&s.pq, oracleEvent{time: t, seq: s.seq, h: h})
	s.seq++
}

// ScheduleEvent queues the Event's bound handler; the oracle keeps its own
// nodes, so it never reads the Event's queue fields.
func (s *heapSim) ScheduleEvent(t int64, e *Event) { s.Schedule(t, e.h) }

func (s *heapSim) At(t int64, fn func()) { s.Schedule(t, funcEvent(fn)) }

func (s *heapSim) After(d int64, fn func()) { s.At(s.now+d, fn) }

func (s *heapSim) Run() int64 {
	for s.pq.Len() > 0 {
		e := heap.Pop(&s.pq).(oracleEvent)
		s.now = e.time
		e.h.Handle(e.time)
	}
	return s.now
}

func (s *heapSim) Pending() int { return s.pq.Len() }
