package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"offchip/internal/engine"
)

// refController is the single-queue controller this package shipped with
// before banks kept their own queues, kept as a test-only oracle: one
// pending list in arrival order across all banks, a dispatch that visits
// every bank, and a pick that walks the whole list. The per-bank controller
// must reproduce its picks, bypass counts, completion schedule and
// statistics exactly; TestPerBankQueuesMatchReference drives both with
// identical random schedules.
type refController struct {
	cfg     Config
	sim     *engine.Sim
	banks   []bank
	pending []*refRequest
	starve  int
	last    Service

	Submitted, Served                int64
	TotalMemLatency, TotalQueueWait  int64
	RowHits, rowMisses, rowConflicts int64
	bankServed                       []int64
	qInt, qLast, qCur                int64
}

type refRequest struct {
	arrive, row, start, finish int64
	bank, bypassed             int
	done                       Completion
	c                          *refController
}

func (r *refRequest) Handle(int64) {
	r.c.last = Service{Bank: r.bank, Arrive: r.arrive, Start: r.start, Bypassed: r.bypassed}
	r.done.MemDone(r.finish)
	r.c.dispatch()
}

func newRefController(cfg Config, sim *engine.Sim) *refController {
	c := &refController{
		cfg: cfg, sim: sim,
		banks:      make([]bank, cfg.BanksPerMC),
		starve:     EffectiveStarveLimit(cfg),
		bankServed: make([]int64, cfg.BanksPerMC),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

func (c *refController) SubmitTo(addr int64, done Completion) {
	rowID := addr / c.cfg.RowBytes
	b := int((rowID ^ (rowID >> 4) ^ (rowID >> 9)) % int64(c.cfg.BanksPerMC))
	now := c.sim.Now()
	r := &refRequest{arrive: now, bank: b, row: rowID / int64(c.cfg.BanksPerMC), done: done, c: c}
	c.Submitted++
	c.pending = append(c.pending, r)
	c.setQueueLen(now)
	c.dispatch()
}

func (c *refController) dispatch() {
	now := c.sim.Now()
	for bi := range c.banks {
		if c.banks[bi].freeAt > now {
			continue
		}
		idx := c.pick(bi)
		if idx < 0 {
			continue
		}
		r := c.pending[idx]
		c.pending = append(c.pending[:idx], c.pending[idx+1:]...)
		c.setQueueLen(now)

		var dur int64
		switch {
		case c.banks[bi].openRow == r.row:
			dur = c.cfg.TRowHit
			c.RowHits++
		case c.banks[bi].openRow == -1:
			dur = c.cfg.TRowMiss
			c.rowMisses++
		default:
			dur = c.cfg.TRowConflict
			c.rowConflicts++
		}
		c.banks[bi].openRow = r.row
		c.banks[bi].freeAt = now + dur

		finish := now + dur
		c.Served++
		c.TotalQueueWait += now - r.arrive
		c.TotalMemLatency += finish - r.arrive
		c.bankServed[bi]++
		r.start, r.finish = now, finish
		c.sim.Schedule(finish, r)
	}
}

func (c *refController) pick(bank int) int {
	oldest, hit := -1, -1
	for i, r := range c.pending {
		if r.bank != bank {
			continue
		}
		if oldest == -1 {
			oldest = i
		}
		if r.row == c.banks[bank].openRow {
			hit = i
			break
		}
	}
	if hit == -1 || hit == oldest {
		return oldest
	}
	if c.pending[oldest].bypassed >= c.starve {
		return oldest
	}
	for _, r := range c.pending[:hit] {
		if r.bank == bank {
			r.bypassed++
		}
	}
	return hit
}

func (c *refController) setQueueLen(now int64) {
	c.qInt += c.qCur * (now - c.qLast)
	c.qLast = now
	c.qCur = int64(len(c.pending))
}

func (c *refController) QueueOccupancy(until int64) float64 {
	if until <= 0 {
		return 0
	}
	return float64(c.qInt+c.qCur*(until-c.qLast)) / float64(until)
}

func (c *refController) LastService() Service { return c.last }
func (c *refController) Outstanding() int     { return len(c.pending) }

// scheduler is what the differential driver needs of either controller.
type scheduler interface {
	SubmitTo(addr int64, done Completion)
	LastService() Service
	Outstanding() int
	stats(end int64) schedStats
}

// schedStats is every statistic the two controllers must agree on.
type schedStats struct {
	Submitted, Served, MemLatency, QueueWait int64
	RowHits, RowMisses, RowConflicts         int64
	BankServed                               []int64
	Occupancy                                float64
}

func (c *Controller) stats(end int64) schedStats {
	return schedStats{c.Submitted, c.Served, c.TotalMemLatency, c.TotalQueueWait,
		c.RowHits, c.rowMisses, c.rowConflicts, c.bankServed, c.QueueOccupancy(end)}
}

func (c *refController) stats(end int64) schedStats {
	return schedStats{c.Submitted, c.Served, c.TotalMemLatency, c.TotalQueueWait,
		c.RowHits, c.rowMisses, c.rowConflicts, c.bankServed, c.QueueOccupancy(end)}
}

// diffPlan is one random schedule: submits at planned cycles (several per
// cycle, bursts to one row), and for each request ID the address its
// completion submits next (-1: none).
type diffPlan struct {
	cfg     Config
	submits []plannedSubmit
	again   []int64
}

type plannedSubmit struct{ at, addr int64 }

// delivery is one completion as the submitter sees it.
type delivery struct {
	id, outstanding int
	finish          int64
	svc             Service
}

// diffDriver feeds one controller a plan and logs its deliveries.
type diffDriver struct {
	plan   *diffPlan
	ctl    scheduler
	nextID int
	log    []delivery
}

type diffReq struct {
	d  *diffDriver
	id int
}

func (r *diffReq) MemDone(finish int64) {
	d := r.d
	d.log = append(d.log, delivery{id: r.id, outstanding: d.ctl.Outstanding(), finish: finish, svc: d.ctl.LastService()})
	if r.id < len(d.plan.again) && d.plan.again[r.id] >= 0 {
		d.submit(d.plan.again[r.id])
	}
}

func (d *diffDriver) submit(addr int64) {
	r := &diffReq{d: d, id: d.nextID}
	d.nextID++
	d.ctl.SubmitTo(addr, r)
}

// replay runs the plan on a fresh engine through the controller newCtl
// builds and returns the delivery log and the drained statistics.
func (p *diffPlan) replay(newCtl func(*engine.Sim) scheduler) ([]delivery, schedStats) {
	var s engine.Sim
	d := &diffDriver{plan: p, ctl: newCtl(&s)}
	for _, sub := range p.submits {
		addr := sub.addr
		at(&s, sub.at, func() { d.submit(addr) })
	}
	end := s.Run()
	return d.log, d.ctl.stats(end)
}

// randomPlan draws a schedule over a few rows per bank, so row hits, misses
// and conflicts all occur; one-row bursts and a small starvation cap make
// FR-FCFS reordering reach its cap.
func randomPlan(rng *rand.Rand, banks int) *diffPlan {
	cfg := DefaultConfig()
	cfg.BanksPerMC = banks
	cfg.RowBytes = 256
	cfg.TRowHit = 1 + rng.Int63n(4)
	cfg.TRowMiss = cfg.TRowHit + rng.Int63n(4)
	cfg.TRowConflict = cfg.TRowMiss + rng.Int63n(4)
	cfg.StarveLimit = rng.Intn(4) // 0 selects the default cap
	rows := int64(3 * banks)
	addr := func(row int64) int64 { return row*cfg.RowBytes + 16*rng.Int63n(cfg.RowBytes/16) }
	n := 200 + rng.Intn(200)
	span := 1 + int64(n)*cfg.TRowMiss/int64(2*banks)
	p := &diffPlan{cfg: cfg}
	for len(p.submits) < n {
		t, row := rng.Int63n(span), rng.Int63n(rows)
		burst := 1
		if rng.Intn(4) == 0 {
			burst += rng.Intn(10)
		}
		for k := 0; k < burst; k++ {
			p.submits = append(p.submits, plannedSubmit{t, addr(row)})
		}
	}
	p.again = make([]int64, 2*n)
	for i := range p.again {
		p.again[i] = -1
		if rng.Intn(3) == 0 {
			p.again[i] = addr(rng.Int63n(rows))
		}
	}
	return p
}

// TestPerBankQueuesMatchReference drives the per-bank controller and the
// single-queue reference with identical random schedules — 1, 4, 16 and
// 100 banks (100 spans two bitmap words), row hits and conflicts, requests
// that reach the starvation cap, several submits in one cycle, completions
// on different banks in one cycle, and completions that submit again — and
// requires identical delivery order, finish times, service records, queue
// depths and statistics.
func TestPerBankQueuesMatchReference(t *testing.T) {
	for _, banks := range []int{1, 4, 16, 100} {
		var capped, sameCycle, resubmits, hits, conflicts int64
		for seed := int64(0); seed < 25; seed++ {
			p := randomPlan(rand.New(rand.NewSource(seed*131+int64(banks))), banks)
			got, gotStats := p.replay(func(s *engine.Sim) scheduler { return New(0, p.cfg, s, nil) })
			want, wantStats := p.replay(func(s *engine.Sim) scheduler { return newRefController(p.cfg, s) })
			if len(got) != len(want) {
				t.Fatalf("banks %d seed %d: %d deliveries, reference %d", banks, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("banks %d seed %d: delivery %d = %+v, reference %+v", banks, seed, i, got[i], want[i])
				}
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("banks %d seed %d: stats %+v, reference %+v", banks, seed, gotStats, wantStats)
			}
			limit := EffectiveStarveLimit(p.cfg)
			for i, dl := range want {
				if dl.svc.Bypassed == limit {
					capped++
				}
				if i > 0 && dl.finish == want[i-1].finish && dl.svc.Bank != want[i-1].svc.Bank {
					sameCycle++
				}
			}
			resubmits += int64(len(want) - len(p.submits))
			hits += wantStats.RowHits
			conflicts += wantStats.RowConflicts
		}
		// The schedules must exercise what the test claims to cover.
		if capped == 0 || resubmits == 0 || hits == 0 || conflicts == 0 || (banks > 1 && sameCycle == 0) {
			t.Errorf("banks %d: coverage capped=%d resubmits=%d hits=%d conflicts=%d same-cycle=%d",
				banks, capped, resubmits, hits, conflicts, sameCycle)
		}
	}
}
