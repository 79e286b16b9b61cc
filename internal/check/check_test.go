package check

import (
	"strings"
	"testing"

	"offchip/internal/dram"
	"offchip/internal/mesh"
	"offchip/internal/noc"
	"offchip/internal/probe"
)

// bound returns a Checker bound to a small 4×4 machine, ready to probe.
func bound() *Checker {
	c := New()
	c.Bind(Params{
		MeshX: 4, MeshY: 4,
		NoC:  noc.DefaultConfig(4, 4),
		DRAM: dram.DefaultConfig(),
	})
	return c
}

// at is a stage report of kind k at time t.
func at(k probe.Kind, t int64) probe.Stage { return probe.Stage{Kind: k, T: t} }

// msg is a request transit from src to dst.
func msg(src, dst mesh.Node, depart, arrive int64, hops int) probe.Stage {
	return probe.Stage{Kind: probe.Req, T: arrive, Depart: depart, From: src, To: dst, Hops: hops}
}

// served is a DRAM completion at finish of a request on mc 0.
func served(bank int, arrive, start, finish int64, bypassed int) probe.Stage {
	return probe.Stage{Kind: probe.DRAMDone, T: finish,
		Service: dram.Service{Bank: bank, Arrive: arrive, Start: start, Bypassed: bypassed}}
}

// wantProbe asserts the checker recorded at least one violation from the
// named probe.
func wantProbe(t *testing.T, c *Checker, probe string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Probe == probe {
			return
		}
	}
	t.Errorf("no %q violation recorded; got %v", probe, c.Violations())
}

func TestCausalityCleanFlow(t *testing.T) {
	c := bound()
	c.Begin(1, 0, 10)
	c.Stage(1, at(probe.L1, 12))
	c.Stage(1, at(probe.L2, 12)) // equal times are legal (same-cycle handoff)
	c.Stage(1, at(probe.Dir, 20))
	c.End(1, 25)
	if !c.Ok() {
		t.Errorf("clean flow flagged: %v", c.Violations())
	}
}

func TestCausalityStageRewind(t *testing.T) {
	c := bound()
	c.Begin(1, 0, 10)
	c.Stage(1, at(probe.L1, 5)) // precedes issue
	wantProbe(t, c, "causality")
}

func TestCausalityDoubleRetire(t *testing.T) {
	c := bound()
	c.Begin(1, 0, 0)
	c.End(1, 5)
	c.End(1, 6)
	wantProbe(t, c, "causality")
}

func TestCausalityUnknownAccess(t *testing.T) {
	c := bound()
	c.Stage(99, at(probe.L1, 0))
	wantProbe(t, c, "causality")
}

func TestCausalityInflightAtDrain(t *testing.T) {
	c := bound()
	c.Begin(1, 0, 0) // never retired
	c.Finish(probe.Totals{MaxHops: -1})
	wantProbe(t, c, "causality")
}

func TestEngineTickRewind(t *testing.T) {
	c := bound()
	c.EngineTick(10)
	c.EngineTick(10) // equal is fine
	c.EngineTick(9)
	wantProbe(t, c, "engine")
}

func TestTransitClean(t *testing.T) {
	c := bound()
	src, dst := mesh.Node{X: 0, Y: 0}, mesh.Node{X: 2, Y: 1}
	zero := NoCZeroLoadBetween(c.p.NoC, src, dst)
	c.Stage(0, msg(src, dst, 100, 100+zero, 3))
	if !c.Ok() {
		t.Errorf("clean transit flagged: %v", c.Violations())
	}
}

func TestTransitWrongHops(t *testing.T) {
	c := bound()
	// Manhattan distance 0→(2,1) is 3, not 4.
	c.Stage(0, msg(mesh.Node{}, mesh.Node{X: 2, Y: 1}, 0, 100, 4))
	wantProbe(t, c, "xy-route")
}

func TestTransitHopBound(t *testing.T) {
	c := bound()
	// A destination outside the 4×4 mesh: distance 10 exceeds diameter 6.
	c.Stage(0, msg(mesh.Node{}, mesh.Node{X: 5, Y: 5}, 0, 1000, 10))
	wantProbe(t, c, "hop-bound")
}

func TestTransitBelowZeroLoad(t *testing.T) {
	c := bound()
	// 3 hops arriving after 1 cycle: below any per-hop cost.
	c.Stage(0, msg(mesh.Node{}, mesh.Node{X: 2, Y: 1}, 0, 1, 3))
	wantProbe(t, c, "zero-load")
}

func TestTransitIdealMustBeExact(t *testing.T) {
	c := New()
	cfg := noc.DefaultConfig(4, 4)
	cfg.Contention = false
	c.Bind(Params{MeshX: 4, MeshY: 4, NoC: cfg, DRAM: dram.DefaultConfig()})
	zero := NoCZeroLoad(cfg, 3)
	// On an ideal network any latency above zero-load is also a violation.
	c.Stage(0, msg(mesh.Node{}, mesh.Node{X: 2, Y: 1}, 0, zero+1, 3))
	wantProbe(t, c, "zero-load")
}

func TestServeClean(t *testing.T) {
	c := bound()
	d := c.p.DRAM
	c.Stage(0, at(probe.DRAMSubmit, 10))
	c.Stage(0, served(3, 10, 15, 15+d.TRowHit, 2))
	if !c.Ok() {
		t.Errorf("clean service flagged: %v", c.Violations())
	}
	if c.MaxBypass != 2 {
		t.Errorf("MaxBypass = %d, want 2", c.MaxBypass)
	}
}

func TestServeBeforeArrive(t *testing.T) {
	c := bound()
	c.Stage(0, served(0, 20, 10, 30, 0))
	wantProbe(t, c, "dram")
}

func TestServeBadDuration(t *testing.T) {
	c := bound()
	c.Stage(0, served(0, 0, 0, 17, 0)) // 17 matches none of hit/miss/conflict
	wantProbe(t, c, "dram")
}

func TestServeStarvationBound(t *testing.T) {
	c := bound()
	limit := dram.EffectiveStarveLimit(c.p.DRAM)
	c.Stage(0, served(0, 0, 0, c.p.DRAM.TRowHit, limit)) // at the bound: legal
	if !c.Ok() {
		t.Errorf("at-bound service flagged: %v", c.Violations())
	}
	c.Stage(0, served(0, 0, 0, c.p.DRAM.TRowHit, limit+1))
	wantProbe(t, c, "starvation")
}

func TestFinishRunEnqueueServeMismatch(t *testing.T) {
	c := bound()
	c.Stage(0, at(probe.DRAMSubmit, 0))
	c.Finish(probe.Totals{MaxHops: -1})
	wantProbe(t, c, "conservation")
}

func TestVerifyTotals(t *testing.T) {
	clean := probe.Totals{
		TraceAccesses: 10, Injected: 10, Completed: 10,
		L1Hits: 4, L2LocalHits: 3, OnChipRemote: 1, OffChip: 2,
		NetMsgs:      [2]int64{3, 2},
		HopCDF:       [2][]float64{{0.5, 0.8, 1}, {0, 0.5, 1}},
		MaxHops:      2,
		MemSubmitted: 2, MemServed: 2,
		Events: 30,
	}
	if vs := VerifyTotals(clean); len(vs) != 0 {
		t.Fatalf("clean totals flagged: %v", vs)
	}
	cases := []struct {
		name   string
		mutate func(*probe.Totals)
		want   string
	}{
		{"dropped-injection", func(r *probe.Totals) { r.Injected = 9; r.Completed = 9; r.L1Hits = 3 }, "injected"},
		{"lost-completion", func(r *probe.Totals) { r.Completed = 9 }, "completed"},
		{"outcome-partition", func(r *probe.Totals) { r.L1Hits = 5 }, "partition"},
		{"dram-mismatch", func(r *probe.Totals) { r.MemServed = 1 }, "DRAM requests"},
		{"optimal-touched-controllers", func(r *probe.Totals) { r.Optimal = true }, "optimal scheme submitted"},
		{"served-vs-offchip", func(r *probe.Totals) { r.MemSubmitted = 3; r.MemServed = 3 }, "off-chip accesses"},
		{"cdf-wrong-length", func(r *probe.Totals) { r.HopCDF[0] = []float64{0.5, 1} }, "entries"},
		{"cdf-not-closed", func(r *probe.Totals) { r.HopCDF[1] = []float64{0, 0.5, 0.9} }, "close at 1"},
		{"too-few-events", func(r *probe.Totals) { r.Events = 10 }, "multi-stage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tot := clean
			tot.HopCDF = [2][]float64{
				append([]float64(nil), clean.HopCDF[0]...),
				append([]float64(nil), clean.HopCDF[1]...),
			}
			tc.mutate(&tot)
			vs := VerifyTotals(tot)
			if len(vs) == 0 {
				t.Fatal("seeded breakage not detected")
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.Msg, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no violation mentioning %q; got %v", tc.want, vs)
			}
		})
	}
}

func TestReportCapAndCount(t *testing.T) {
	c := bound()
	for i := 0; i < 100; i++ {
		c.Report("test", "violation %d", i)
	}
	if len(c.Violations()) != maxRecorded {
		t.Errorf("recorded %d violations, cap is %d", len(c.Violations()), maxRecorded)
	}
	if c.Count() != 100 {
		t.Errorf("Count = %d, want 100", c.Count())
	}
	if c.Ok() {
		t.Error("Ok with violations")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "100 violation") {
		t.Errorf("Err = %v", err)
	}
}

func TestNilCheckerAccessors(t *testing.T) {
	var c *Checker
	if c.Violations() != nil || c.Count() != 0 || !c.Ok() || c.Err() != nil {
		t.Error("nil checker accessors not inert")
	}
}

func TestBindResets(t *testing.T) {
	c := bound()
	c.Report("test", "earlier run")
	c.Begin(1, 0, 0)
	c.EngineTick(50)
	c.Bind(c.p)
	if len(c.inflight) != 0 || c.lastTick != 0 || c.started != 0 {
		t.Error("Bind did not reset probe state")
	}
	// Recorded violations outlive the rebind: a Checker bound to several
	// runs (a sampled simulation's windows) reports every run's.
	if c.Count() != 1 || len(c.Violations()) != 1 || c.Violations()[0].Msg != "earlier run" {
		t.Errorf("Bind dropped an earlier run's violation: %v", c.Violations())
	}
}
