package engine

import (
	"math/rand"
	"testing"
)

// scheduler is the surface the property tests exercise: both the
// timing-wheel Sim and the container/heap oracle implement it.
type scheduler interface {
	Now() int64
	At(t int64, fn func())
	After(d int64, fn func())
	Schedule(t int64, h Handler)
	ScheduleEvent(t int64, e *Event)
	Run() int64
}

// dispatchRecord is one executed event: the time it ran at and its identity
// (allocation order). Two schedulers agree iff their record streams agree.
type dispatchRecord struct {
	time int64
	id   int
}

// scenarioDriver replays one pseudo-random schedule on a scheduler. Child
// events are decided by the rng *in dispatch order*, so the driver doubles
// as an order detector: if the implementations diverge in dispatch order,
// they also diverge in what they schedule next, and the logs cannot match.
type scenarioDriver struct {
	s      scheduler
	rng    *rand.Rand
	log    []dispatchRecord
	nextID int
	budget int // events still allowed to be scheduled
}

// handlerEvent is the typed-path probe: a pooled-style Handler whose Handle
// records the dispatch and fans out children, exactly like the closure path.
type handlerEvent struct {
	d  *scenarioDriver
	id int
}

func (h *handlerEvent) Handle(now int64) { h.d.fire(h.id, now) }

// embeddedEvent is the simulator's path: a handler that embeds its own
// Event. When it fires it may reschedule that same Event under a fresh ID,
// the way an in-flight access walks its stages.
type embeddedEvent struct {
	Event
	d  *scenarioDriver
	id int
}

func (e *embeddedEvent) Handle(now int64) {
	e.d.fire(e.id, now)
	if e.d.rng.Intn(2) == 0 && e.d.budget > 0 {
		e.d.budget--
		e.id = e.d.nextID
		e.d.nextID++
		e.d.s.ScheduleEvent(e.d.s.Now()+e.d.delta(), &e.Event)
	}
}

func (d *scenarioDriver) fire(id int, now int64) {
	if now != d.s.Now() {
		panic("scheduler clock disagrees with handler's now argument")
	}
	d.log = append(d.log, dispatchRecord{time: now, id: id})
	children := d.rng.Intn(4) // 0..3 follow-up events
	for c := 0; c < children; c++ {
		d.spawn()
	}
}

// delta draws a scheduling delay that exercises every queue regime: past
// times (clamping), the same cycle (reentrant dispatch), the wheel window,
// and far-future times that must ride the overflow heap.
func (d *scenarioDriver) delta() int64 {
	switch d.rng.Intn(10) {
	case 0:
		return -int64(d.rng.Intn(50)) // in the past: must clamp to now
	case 1:
		return 0 // same cycle: reentrant dispatch, FIFO within the cycle
	case 2, 3:
		return int64(d.rng.Intn(3 * wheelSize)) // beyond the wheel horizon
	default:
		return int64(d.rng.Intn(80)) // the common dense regime
	}
}

// spawn schedules one child with a randomly chosen API (At / After /
// Schedule for plain handlers, ScheduleEvent for a handler that embeds its
// Event) and a delta from delta.
func (d *scenarioDriver) spawn() {
	if d.budget <= 0 {
		return
	}
	d.budget--
	id := d.nextID
	d.nextID++
	delta := d.delta()
	t := d.s.Now() + delta
	switch d.rng.Intn(4) {
	case 0:
		d.s.At(t, func() { d.fire(id, d.s.Now()) })
	case 1:
		d.s.After(delta, func() { d.fire(id, d.s.Now()) })
	case 2:
		d.s.Schedule(t, &handlerEvent{d: d, id: id})
	default:
		e := &embeddedEvent{d: d, id: id}
		e.Init(e)
		d.s.ScheduleEvent(t, &e.Event)
	}
}

// runScenario replays the seed's schedule: root events, rng-driven fan-out
// until the queue drains, then fresh roots on the *same* (drained, reused)
// scheduler until the whole event budget is spent. The drain-and-reuse loop
// is deliberate: a reused instance must keep its clock and its deterministic
// ordering, on both implementations.
func runScenario(s scheduler, seed int64, budget int) (records []dispatchRecord, end int64) {
	d := &scenarioDriver{s: s, rng: rand.New(rand.NewSource(seed)), budget: budget}
	for d.budget > 0 {
		roots := 1 + d.rng.Intn(8)
		for i := 0; i < roots && d.budget > 0; i++ {
			d.spawn()
		}
		end = s.Run()
	}
	return d.log, end
}

// TestPropertyWheelMatchesHeapOracle drives the timing-wheel scheduler and
// the original container/heap implementation with identical pseudo-random
// interleavings of At/After/Schedule/ScheduleEvent — 10k-event schedules
// mixing pooled plain handlers with handlers that embed (and reschedule)
// their own Event, including past-time clamping, same-cycle reentrant
// scheduling, and overflow-horizon times — and requires bit-identical
// dispatch order (time, insertion seq).
func TestPropertyWheelMatchesHeapOracle(t *testing.T) {
	const budget = 10000
	for seed := int64(0); seed < 25; seed++ {
		wheelLog, wheelEnd := runScenario(&Sim{}, seed, budget)
		heapLog, heapEnd := runScenario(&heapSim{}, seed, budget)
		if len(wheelLog) != len(heapLog) {
			t.Fatalf("seed %d: dispatched %d events, oracle %d", seed, len(wheelLog), len(heapLog))
		}
		for i := range wheelLog {
			if wheelLog[i] != heapLog[i] {
				t.Fatalf("seed %d: dispatch %d diverges: wheel (t=%d id=%d) vs oracle (t=%d id=%d)",
					seed, i, wheelLog[i].time, wheelLog[i].id, heapLog[i].time, heapLog[i].id)
			}
		}
		if wheelEnd != heapEnd {
			t.Fatalf("seed %d: final time %d, oracle %d", seed, wheelEnd, heapEnd)
		}
		if len(wheelLog) != budget {
			t.Fatalf("seed %d: scenario dispatched %d events (wanted the full %d budget)", seed, len(wheelLog), budget)
		}
	}
}

// TestPropertyTimeNeverRewinds asserts the clock is monotonic under the
// same adversarial schedules (past-time events clamp, never rewind).
func TestPropertyTimeNeverRewinds(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		log, _ := runScenario(&Sim{}, seed, 2000)
		for i := 1; i < len(log); i++ {
			if log[i].time < log[i-1].time {
				t.Fatalf("seed %d: time rewound from %d to %d at dispatch %d",
					seed, log[i-1].time, log[i].time, i)
			}
		}
	}
}
