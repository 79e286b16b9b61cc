// Package dram models a memory controller with per-bank row buffers and
// FR-FCFS (first-ready, first-come-first-served) scheduling [16]: among
// pending requests, row-buffer hits are served before older row-buffer
// misses; ties fall back to arrival order. Timing follows the shape of the
// paper's Table 1 DDR3-1600 part: a row-buffer hit costs one CAS, a closed
// bank adds activation, and a conflict adds precharge.
//
// Each bank keeps its own queue in arrival order, and a bitmap marks the
// banks with queued requests, so finding work visits only those banks and
// an FR-FCFS pick scans only its own bank's queue.
//
// Controllers keep their statistics in plain fields — request mix (row
// hits/misses/conflicts), per-bank served counts for the -report
// hottest-bank table, and the Figure 18 queue-length integral — and Publish
// mirrors them into the metrics registry. Each request's bank and its
// queue/service split reach observers through the Service record
// (LastService), which the simulator forwards on its probe stream.
package dram

import (
	"fmt"
	"math/bits"
	"strconv"

	"offchip/internal/engine"
	"offchip/internal/obs"
)

// Config sets the controller parameters.
type Config struct {
	BanksPerMC int
	RowBytes   int64 // row-buffer size (Table 1: 4 KB)

	// Service times in core cycles.
	TRowHit      int64 // open-row access (CAS)
	TRowMiss     int64 // closed bank (RCD + CAS)
	TRowConflict int64 // open different row (RP + RCD + CAS)

	// StarveLimit caps FR-FCFS reordering: once the oldest pending request
	// for a bank has been passed over this many times by younger row-buffer
	// hits, the bank reverts to strict FCFS until it is served. Real
	// schedulers carry such a cap for exactly this reason — an unbounded
	// hit-first policy starves a conflicting stream forever. Zero or
	// negative selects DefaultStarveLimit.
	StarveLimit int
}

// DefaultStarveLimit is the bypass cap used when Config.StarveLimit is
// unset.
const DefaultStarveLimit = 8

// EffectiveStarveLimit returns the bypass cap a controller with this
// configuration enforces (the invariant checker asserts it at every
// service).
func EffectiveStarveLimit(cfg Config) int {
	if cfg.StarveLimit <= 0 {
		return DefaultStarveLimit
	}
	return cfg.StarveLimit
}

// DefaultConfig returns timing in the shape of Micron DDR3-1600 as seen
// from a 2 GHz core: ~20 cycles CAS, ~40 activate+CAS, ~60 with precharge;
// 4 KB rows (Table 1), with 16 banks per controller (Table 1's 4 banks per
// device across four ranks).
func DefaultConfig() Config {
	return Config{
		BanksPerMC:   16,
		RowBytes:     4096,
		TRowHit:      20,
		TRowMiss:     40,
		TRowConflict: 60,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BanksPerMC <= 0 {
		return fmt.Errorf("dram: %d banks", c.BanksPerMC)
	}
	if c.RowBytes <= 0 {
		return fmt.Errorf("dram: row size %d", c.RowBytes)
	}
	if c.TRowHit <= 0 || c.TRowMiss < c.TRowHit || c.TRowConflict < c.TRowMiss {
		return fmt.Errorf("dram: inconsistent timings hit=%d miss=%d conflict=%d",
			c.TRowHit, c.TRowMiss, c.TRowConflict)
	}
	return nil
}

// Completion receives a request's completion time. The simulator
// implements it on its pooled per-access event object, so a submission
// allocates nothing.
type Completion interface {
	MemDone(finish int64)
}

// Service is the bank-service record of one request: its bank, its enqueue
// time, the start of its bank service, and how many times younger row hits
// were served ahead of it.
type Service struct {
	Bank     int
	Arrive   int64
	Start    int64
	Bypassed int
}

// request is one in-flight controller request. Requests are pooled on the
// controller and embed the engine event of their own completion (bound to
// themselves), so steady-state service allocates nothing.
type request struct {
	engine.Event
	addr     int64
	arrive   int64
	bank     int
	row      int64
	start    int64
	finish   int64
	bypassed int // times a younger row hit was served ahead of this request
	done     Completion
	c        *Controller
	next     *request // controller free-list
}

// Handle is the bank-service completion event: deliver the finish time to
// the submitter, then let the controller schedule its next picks. The
// request recycles itself first — the completion may immediately submit a
// new request, which is allowed to reuse this node.
func (r *request) Handle(int64) {
	c, done, finish := r.c, r.done, r.finish
	c.last = Service{Bank: r.bank, Arrive: r.arrive, Start: r.start, Bypassed: r.bypassed}
	c.freeReq(r)
	done.MemDone(finish)
	c.dispatch()
}

type bank struct {
	openRow int64 // -1 when closed
	freeAt  int64
	queue   []*request // requests waiting for this bank, in arrival order
}

// Controller is one memory controller instance.
type Controller struct {
	ID  int
	cfg Config
	sim *engine.Sim

	banks    []bank
	queued   []uint64 // bit b set while banks[b].queue is non-empty
	pending  int      // requests queued across all banks
	freeReqs *request // recycled request nodes

	starve int     // effective StarveLimit
	last   Service // record of the request whose completion is being delivered

	// Aggregate stats.
	Submitted       int64 // requests accepted (conservation: Submitted == Served at drain)
	Served          int64 // requests completed
	TotalMemLatency int64 // Σ (finish − arrive): the "memory latency" of Figure 4
	TotalQueueWait  int64 // Σ (service start − arrive)
	RowHits         int64
	rowMisses       int64
	rowConflicts    int64
	bankServed      []int64

	// Figure 18's time-weighted queue length: Σ length·dt up to qLast, the
	// time of the latest change, and the length qCur since then.
	qInt  int64
	qLast int64
	qCur  int64

	feed *obs.Feed
}

// New returns a controller bound to the simulation clock, publishing into
// the observer (nil gets a private registry).
func New(id int, cfg Config, sim *engine.Sim, o *obs.Observer) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{
		ID: id, cfg: cfg, sim: sim,
		banks:      make([]bank, cfg.BanksPerMC),
		queued:     make([]uint64, (cfg.BanksPerMC+63)/64),
		starve:     EffectiveStarveLimit(cfg),
		bankServed: make([]int64, cfg.BanksPerMC),
		feed:       obs.NewFeed(obs.OrNew(o).Reg),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	mcLabel := "mc=" + strconv.Itoa(id)
	c.feed.Counter(&c.Served, "dram", "served", mcLabel)
	c.feed.Counter(&c.RowHits, "dram", "row_hits", mcLabel)
	c.feed.Counter(&c.rowMisses, "dram", "row_misses", mcLabel)
	c.feed.Counter(&c.rowConflicts, "dram", "row_conflicts", mcLabel)
	c.feed.Counter(&c.TotalQueueWait, "dram", "queue_wait_cycles", mcLabel)
	c.feed.Counter(&c.TotalMemLatency, "dram", "mem_latency_cycles", mcLabel)
	c.feed.TimeWeighted(&c.qInt, &c.qLast, &c.qCur, "dram", "queue_len", mcLabel)
	for b := range c.bankServed {
		c.feed.Counter(&c.bankServed[b], "dram", "bank_served", "bank="+strconv.Itoa(b), mcLabel)
	}
	return c
}

// Publish mirrors the statistics into the registry (see obs.Feed); call it
// on the goroutine that drives the simulation.
func (c *Controller) Publish() { c.feed.Publish() }

// LastService returns the service record of the request whose completion is
// being delivered. It is valid only inside Completion.MemDone.
func (c *Controller) LastService() Service { return c.last }

// bankOf maps a local address to its bank and row using permutation-based
// (XOR-folded) bank interleaving, the standard defense against bank
// conflicts between regularly strided streams.
func (c *Controller) bankOf(addr int64) (int, int64) {
	rowID := addr / c.cfg.RowBytes
	bank := (rowID ^ (rowID >> 4) ^ (rowID >> 9)) % int64(c.cfg.BanksPerMC)
	return int(bank), rowID / int64(c.cfg.BanksPerMC)
}

// allocReq hands out a pooled request node bound to this controller.
func (c *Controller) allocReq() *request {
	r := c.freeReqs
	if r == nil {
		r = &request{c: c}
		r.Init(r)
		return r
	}
	c.freeReqs = r.next
	r.next = nil
	return r
}

// freeReq recycles a completed request, dropping the Completion reference so
// pooled caller events are not retained.
func (c *Controller) freeReq(r *request) {
	r.done = nil
	r.next = c.freeReqs
	c.freeReqs = r
}

// SubmitTo enqueues a request at the current simulation time; done.MemDone
// fires at the completion time. This is the allocation-free path: the
// request node comes from the controller's pool and doubles as the
// completion event.
func (c *Controller) SubmitTo(addr int64, done Completion) {
	b, row := c.bankOf(addr)
	now := c.sim.Now()
	r := c.allocReq()
	r.addr, r.arrive, r.bank, r.row, r.done = addr, now, b, row, done
	r.bypassed = 0
	c.Submitted++
	c.banks[b].queue = append(c.banks[b].queue, r)
	c.queued[b>>6] |= 1 << uint(b&63)
	c.pending++
	c.setQueueLen(now)
	c.dispatch()
}

// dispatch serves every idle bank with queued requests its FR-FCFS pick, in
// ascending bank order (the order their completions are scheduled in).
// Serving a bank only clears its own bit and leaves it busy past now, so
// each word's bits can be walked from a copy.
func (c *Controller) dispatch() {
	now := c.sim.Now()
	for w, word := range c.queued {
		for word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if c.banks[b].freeAt <= now {
				c.serve(b, now)
			}
		}
	}
}

// serve starts bank b's FR-FCFS pick at now and schedules its completion.
func (c *Controller) serve(b int, now int64) {
	bk := &c.banks[b]
	i := c.pick(bk)
	r := bk.queue[i]
	bk.queue = append(bk.queue[:i], bk.queue[i+1:]...)
	if len(bk.queue) == 0 {
		c.queued[b>>6] &^= 1 << uint(b&63)
	}
	c.pending--
	c.setQueueLen(now)

	var dur int64
	switch {
	case bk.openRow == r.row:
		dur = c.cfg.TRowHit
		c.RowHits++
	case bk.openRow == -1:
		dur = c.cfg.TRowMiss
		c.rowMisses++
	default:
		dur = c.cfg.TRowConflict
		c.rowConflicts++
	}
	bk.openRow = r.row
	bk.freeAt = now + dur

	finish := now + dur
	c.Served++
	c.TotalQueueWait += now - r.arrive
	c.TotalMemLatency += finish - r.arrive
	c.bankServed[b]++
	r.start, r.finish = now, finish
	c.sim.ScheduleEvent(finish, &r.Event)
}

// pick returns the queue index of the bank's FR-FCFS choice: the oldest
// row-buffer hit if any, else the oldest request — bounded by the
// starvation cap: once the oldest request has been bypassed StarveLimit
// times by younger hits, the bank serves strictly in arrival order until it
// drains. The queue is non-empty.
func (c *Controller) pick(bk *bank) int {
	q := bk.queue
	hit := -1
	for i, r := range q {
		if r.row == bk.openRow {
			hit = i // the queue is in arrival order: first hit is oldest hit
			break
		}
	}
	if hit <= 0 {
		return 0
	}
	// Bypass counts are non-increasing in arrival order (every bypass
	// increments all requests older than the served hit), so the oldest
	// request's count alone decides whether the cap is hit.
	if q[0].bypassed >= c.starve {
		return 0
	}
	for _, r := range q[:hit] {
		r.bypassed++
	}
	return hit
}

// setQueueLen folds the elapsed interval at the previous queue length into
// the time-weighted accumulator.
func (c *Controller) setQueueLen(now int64) {
	c.qInt += c.qCur * (now - c.qLast)
	c.qLast = now
	c.qCur = int64(c.pending)
}

// QueueOccupancy returns the time-averaged queue length over [0, until]
// (the bank queue utilization of Figure 18), extending the last recorded
// length to until.
func (c *Controller) QueueOccupancy(until int64) float64 {
	if until <= 0 {
		return 0
	}
	return float64(c.qInt+c.qCur*(until-c.qLast)) / float64(until)
}

// Outstanding returns the current queue depth (for tests).
func (c *Controller) Outstanding() int { return c.pending }
