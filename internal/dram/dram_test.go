package dram

import (
	"testing"

	"offchip/internal/engine"
)

// funcEvent and funcCompletion adapt test closures to the engine's Handler
// and the controller's Completion; the simulator passes pooled typed values.
type funcEvent func()

func (f funcEvent) Handle(int64) { f() }

type funcCompletion func(finish int64)

func (f funcCompletion) MemDone(finish int64) { f(finish) }

// at schedules fn at cycle t.
func at(s *engine.Sim, t int64, fn func()) { s.Schedule(t, funcEvent(fn)) }

// submit enqueues a request for addr whose completion calls onDone.
func submit(c *Controller, addr int64, onDone func(finish int64)) {
	c.SubmitTo(addr, funcCompletion(onDone))
}

func TestSingleRequestClosedBank(t *testing.T) {
	var s engine.Sim
	c := New(0, DefaultConfig(), &s, nil)
	var done int64 = -1
	at(&s, 0, func() {
		submit(c, 0, func(finish int64) { done = finish })
	})
	s.Run()
	if done != DefaultConfig().TRowMiss {
		t.Errorf("closed-bank service finished at %d, want %d", done, DefaultConfig().TRowMiss)
	}
	if c.Served != 1 || c.TotalQueueWait != 0 {
		t.Errorf("served=%d queueWait=%d", c.Served, c.TotalQueueWait)
	}
}

func TestRowBufferHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	run := func(second int64) (gap int64) {
		var s engine.Sim
		c := New(0, cfg, &s, nil)
		var t1, t2 int64
		at(&s, 0, func() { submit(c, 0, func(f int64) { t1 = f }) })
		// Submit the second after the first completes, so no queueing.
		at(&s, cfg.TRowMiss, func() { submit(c, second, func(f int64) { t2 = f }) })
		s.Run()
		return t2 - t1
	}
	// Same row (addr 64 shares row 0 with addr 0): row hit.
	if g := run(64); g != cfg.TRowHit {
		t.Errorf("row hit gap = %d, want %d", g, cfg.TRowHit)
	}
	// Same bank, different row: conflict. Find an address that the XOR
	// bank permutation maps to bank 0 with a different row.
	var s0 engine.Sim
	probe := New(0, cfg, &s0, nil)
	bank0, row0 := probe.bankOf(0)
	conflictAddr := int64(-1)
	for r := int64(1); r < 4096; r++ {
		if b, row := probe.bankOf(r * cfg.RowBytes); b == bank0 && row != row0 {
			conflictAddr = r * cfg.RowBytes
			break
		}
	}
	if conflictAddr < 0 {
		t.Fatal("no conflicting address found")
	}
	if g := run(conflictAddr); g != cfg.TRowConflict {
		t.Errorf("conflict gap = %d, want %d", g, cfg.TRowConflict)
	}
}

func TestBanksServeInParallel(t *testing.T) {
	cfg := DefaultConfig()
	var s engine.Sim
	c := New(0, cfg, &s, nil)
	finishes := make([]int64, cfg.BanksPerMC)
	at(&s, 0, func() {
		for b := 0; b < cfg.BanksPerMC; b++ {
			bb := b
			// One request per bank: bank b gets row-id b.
			submit(c, int64(b)*cfg.RowBytes, func(f int64) { finishes[bb] = f })
		}
	})
	s.Run()
	for b, f := range finishes {
		if f != cfg.TRowMiss {
			t.Errorf("bank %d finished at %d, want %d (parallel service)", b, f, cfg.TRowMiss)
		}
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := DefaultConfig()
	var s engine.Sim
	c := New(0, cfg, &s, nil)
	var order []string
	// Find a conflicting row for bank 0 under the XOR permutation.
	bank0, row0 := c.bankOf(0)
	conflictAddr := int64(-1)
	for r := int64(1); r < 4096; r++ {
		if b, row := c.bankOf(r * cfg.RowBytes); b == bank0 && row != row0 {
			conflictAddr = r * cfg.RowBytes
			break
		}
	}
	if conflictAddr < 0 {
		t.Fatal("no conflicting address found")
	}
	at(&s, 0, func() {
		// Occupy bank 0 with row 0.
		submit(c, 0, func(int64) { order = append(order, "first") })
		// Then queue: a conflict request (older) and a row-hit (younger).
		submit(c, conflictAddr, func(int64) { order = append(order, "conflict") })
		submit(c, 128, func(int64) { order = append(order, "hit") })
	})
	s.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "hit" || order[2] != "conflict" {
		t.Errorf("service order = %v, want [first hit conflict]", order)
	}
	if c.RowHits != 1 {
		t.Errorf("RowHits = %d", c.RowHits)
	}
}

func TestQueueWaitAccounted(t *testing.T) {
	cfg := DefaultConfig()
	var s engine.Sim
	c := New(0, cfg, &s, nil)
	var secondFinish int64
	at(&s, 0, func() {
		submit(c, 0, func(int64) {})
		submit(c, 64, func(f int64) { secondFinish = f }) // same bank, row hit after wait
	})
	s.Run()
	// Second waits TRowMiss then is served as a hit.
	want := cfg.TRowMiss + cfg.TRowHit
	if secondFinish != want {
		t.Errorf("second finish = %d, want %d", secondFinish, want)
	}
	if c.TotalQueueWait != cfg.TRowMiss {
		t.Errorf("TotalQueueWait = %d, want %d", c.TotalQueueWait, cfg.TRowMiss)
	}
	if c.Served != 2 || c.TotalMemLatency != cfg.TRowMiss+want {
		t.Errorf("Served %d, TotalMemLatency %d, want 2 and %d", c.Served, c.TotalMemLatency, cfg.TRowMiss+want)
	}
}

func TestQueueOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	var s engine.Sim
	c := New(0, cfg, &s, nil)
	at(&s, 0, func() {
		for i := 0; i < 8; i++ {
			submit(c, int64(i)*64, func(int64) {}) // all same bank/row area
		}
	})
	end := s.Run()
	occ := c.QueueOccupancy(end)
	if occ <= 0 {
		t.Errorf("queue occupancy = %v, want > 0 for a backlogged bank", occ)
	}
	if c.Outstanding() != 0 {
		t.Errorf("outstanding = %d after drain", c.Outstanding())
	}
	if c.QueueOccupancy(0) != 0 {
		t.Error("occupancy over empty interval")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := good
	bad.BanksPerMC = 0
	if bad.Validate() == nil {
		t.Error("0 banks accepted")
	}
	bad = good
	bad.TRowConflict = 1
	if bad.Validate() == nil {
		t.Error("conflict < miss accepted")
	}
}
