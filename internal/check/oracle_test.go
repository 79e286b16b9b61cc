package check

import (
	"testing"

	"offchip/internal/dram"
	"offchip/internal/engine"
	"offchip/internal/mesh"
	"offchip/internal/noc"
	"offchip/internal/probe"
)

// TestNoCZeroLoadOracleMatchesNetwork sends lone messages across an
// otherwise idle network and requires the simulated arrival to equal the
// closed-form zero-load latency exactly — under contention modeling (where
// serialization is part of the hop cost but no queueing occurs) and on the
// ideal network.
func TestNoCZeroLoadOracleMatchesNetwork(t *testing.T) {
	pairs := []struct{ src, dst mesh.Node }{
		{mesh.Node{X: 0, Y: 0}, mesh.Node{X: 0, Y: 0}},
		{mesh.Node{X: 0, Y: 0}, mesh.Node{X: 1, Y: 0}},
		{mesh.Node{X: 0, Y: 0}, mesh.Node{X: 3, Y: 2}},
		{mesh.Node{X: 2, Y: 3}, mesh.Node{X: 0, Y: 0}},
		{mesh.Node{X: 0, Y: 0}, mesh.Node{X: 7, Y: 7}}, // full diameter
	}
	for _, contention := range []bool{true, false} {
		cfg := noc.DefaultConfig(8, 8)
		cfg.Contention = contention
		n := noc.New(cfg)
		for i, p := range pairs {
			// Departures spaced far apart keep every link idle.
			depart := int64(i) * 10_000
			arr, hops := n.Transit(depart, p.src, p.dst, noc.OnChip)
			want := depart + NoCZeroLoadBetween(cfg, p.src, p.dst)
			if arr != want {
				t.Errorf("contention=%v %v->%v: arrival %d, oracle says %d",
					contention, p.src, p.dst, arr, want)
			}
			if zero := NoCZeroLoad(cfg, hops); arr-depart != zero {
				t.Errorf("contention=%v %d hops: latency %d, oracle says %d",
					contention, hops, arr-depart, zero)
			}
		}
	}
}

// funcEvent and funcCompletion adapt test closures to the engine's Handler
// and the controller's Completion; the simulator passes pooled typed values.
type funcEvent func()

func (f funcEvent) Handle(int64) { f() }

type funcCompletion func(finish int64)

func (f funcCompletion) MemDone(finish int64) { f(finish) }

// TestDRAMSingleStreamOracleMatchesController submits back-to-back same-row
// requests to one bank of an idle controller and requires the last finish
// time to equal the closed-form single-stream service time: one row miss to
// open the row, then pure row hits.
func TestDRAMSingleStreamOracleMatchesController(t *testing.T) {
	cfg := dram.DefaultConfig()
	for _, n := range []int{1, 2, 5, 16} {
		var s engine.Sim
		c := dram.New(0, cfg, &s, nil)
		var last int64
		s.Schedule(0, funcEvent(func() {
			for i := 0; i < n; i++ {
				// Same row (offsets < RowBytes): the stream never changes banks.
				c.SubmitTo(int64(i)*64%cfg.RowBytes, funcCompletion(func(f int64) {
					if f > last {
						last = f
					}
				}))
			}
		}))
		s.Run()
		if want := DRAMSingleStream(cfg, n); last != want {
			t.Errorf("n=%d: stream drained at %d, oracle says %d", n, last, want)
		}
	}
	if DRAMSingleStream(cfg, 0) != 0 {
		t.Error("empty stream has nonzero service time")
	}
}

// TestCheckerAcceptsQuietRealSubstrate drives idle-substrate traffic
// through a real NoC and DRAM controller and feeds the Checker the stage
// reports the simulator would: the probes must stay silent on correct
// hardware models.
func TestCheckerAcceptsQuietRealSubstrate(t *testing.T) {
	nocCfg := noc.DefaultConfig(4, 4)
	c := New()
	c.Bind(Params{MeshX: 4, MeshY: 4, NoC: nocCfg, DRAM: dram.DefaultConfig()})
	n := noc.New(nocCfg)
	for i := 0; i < 5; i++ {
		src, dst, depart := mesh.Node{X: 0, Y: 0}, mesh.Node{X: 3, Y: i % 4}, int64(i)*10_000
		arrive, hops := n.Transit(depart, src, dst, noc.OffChip)
		c.Stage(0, probe.Stage{Kind: probe.Req, T: arrive, Depart: depart, From: src, To: dst, Hops: hops})
	}

	var s engine.Sim
	mc := dram.New(0, c.p.DRAM, &s, nil)
	s.Schedule(0, funcEvent(func() {
		for i := 0; i < 8; i++ {
			c.Stage(0, probe.Stage{Kind: probe.DRAMSubmit, T: s.Now()})
			mc.SubmitTo(int64(i)*64, funcCompletion(func(finish int64) {
				c.Stage(0, probe.Stage{Kind: probe.DRAMDone, T: finish, Service: mc.LastService()})
			}))
		}
	}))
	s.Run()
	c.Finish(probe.Totals{MaxHops: -1, NetMsgs: [2]int64{0, 5}})
	if !c.Ok() {
		t.Errorf("quiet substrate flagged: %v", c.Violations())
	}
}
