package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"offchip/internal/dram"
	"offchip/internal/noc"
	"offchip/internal/probe"
)

func testParams() Params {
	return Params{
		Cores: 2,
		MCs:   1,
		NoC:   noc.Config{HopLatency: 2, LinkOccupancy: 1, Contention: true},
	}
}

// at is a stage report of kind k at time t.
func at(k probe.Kind, t int64) probe.Stage { return probe.Stage{Kind: k, T: t} }

// hop is a transit of kind k arriving at arrive after hops links.
func hop(k probe.Kind, depart, arrive int64, hops int) probe.Stage {
	return probe.Stage{Kind: k, T: arrive, Depart: depart, Hops: hops}
}

// served is a completion on mc 0 at finish of a request that arrived at
// arrive and started service at start.
func served(arrive, start, finish int64) probe.Stage {
	return probe.Stage{Kind: probe.DRAMDone, T: finish, Service: dram.Service{Arrive: arrive, Start: start}}
}

// driveAccess replays one synthetic off-chip access through every stage the
// simulator reports: L1 miss, L2 miss, request transit, directory, DRAM
// submit and queue+service, response transit, retire.
func driveAccess(p *Profiler, id int64, core int, issue int64) {
	p.Begin(id, core, issue)
	t := issue + 3 // L1 lookup
	p.Stage(id, at(probe.L1, t))
	t += 7 // L2 lookup
	p.Stage(id, at(probe.L2, t))
	// 4 hops, 12 zero-load cycles (perHop=3), 5 cycles of link queueing.
	p.Stage(id, hop(probe.Req, t, t+17, 4))
	t += 17
	t += 2 // directory lookup
	p.Stage(id, at(probe.Dir, t))
	p.Stage(id, at(probe.DRAMSubmit, t))
	// DRAM: arrives at t, waits 6, serves 20.
	finish := t + 26
	p.Stage(id, served(t, t+6, finish))
	t = finish
	// Response: 4 hops, no queueing.
	p.Stage(id, hop(probe.Resp, t, t+12, 4))
	t += 12
	p.End(id, t)
}

func TestSyntheticConservation(t *testing.T) {
	p := New()
	p.Bind(testParams())
	if p.perHop != 3 {
		t.Fatalf("perHop = %d, want 3 (HopLatency+LinkOccupancy)", p.perHop)
	}
	driveAccess(p, 1, 0, 100)
	driveAccess(p, 2, 1, 250)
	p.Finish(probe.Totals{})
	if v := p.Violations(); len(v) != 0 {
		t.Fatalf("clean run recorded violations: %v", v)
	}
	prof := p.Profile()
	if prof.Accesses != 2 {
		t.Fatalf("accesses = %d, want 2", prof.Accesses)
	}
	if got, want := prof.Attributed(), prof.EndToEnd; got != want {
		t.Fatalf("attributed %d != end-to-end %d", got, want)
	}
	if prof.Comp[CompRetire] != 0 {
		t.Fatalf("retire residual = %d, want 0", prof.Comp[CompRetire])
	}
	// Per-component expectations for one access, doubled.
	want := map[Component]int64{
		CompL1:           2 * 3,
		CompL2:           2 * 7,
		CompNoCReqHops:   2 * 12,
		CompNoCReqQueue:  2 * 5,
		CompDirLookup:    2 * 2,
		CompDRAMQueue:    2 * 6,
		CompDRAMService:  2 * 20,
		CompNoCRespHops:  2 * 12,
		CompNoCRespQueue: 0,
	}
	for c, w := range want {
		if prof.Comp[c] != w {
			t.Errorf("%v = %d, want %d", c, prof.Comp[c], w)
		}
	}
	// Per-core split: each core ran one identical access.
	for c := Component(0); c < NumComponents; c++ {
		if prof.PerCore[0][c] != prof.PerCore[1][c] {
			t.Errorf("per-core mismatch at %v: %d vs %d", c, prof.PerCore[0][c], prof.PerCore[1][c])
		}
	}
	if prof.MCQueue[0] != 12 || prof.MCService[0] != 40 {
		t.Errorf("mc split = %d/%d, want 12/40", prof.MCQueue[0], prof.MCService[0])
	}
}

func TestTransitZeroLoadClamped(t *testing.T) {
	p := New()
	p.Bind(testParams())
	p.Begin(1, 0, 0)
	// 10 hops would be 30 zero-load cycles, but only 12 elapsed: the split
	// must clamp (and record the inconsistency).
	p.Stage(1, hop(probe.Req, 0, 12, 10))
	p.End(1, 12)
	if p.comp[CompNoCReqHops] != 12 || p.comp[CompNoCReqQueue] != 0 {
		t.Fatalf("clamped split = %d/%d, want 12/0", p.comp[CompNoCReqHops], p.comp[CompNoCReqQueue])
	}
	if len(p.Violations()) == 0 {
		t.Fatal("over-long zero-load transit should record a violation")
	}
}

func TestUncorrelatedDRAMDoneKeepsConservation(t *testing.T) {
	p := New()
	p.Bind(testParams())
	p.Begin(1, 0, 0)
	p.Stage(1, served(5, 20, 40)) // arrival disagrees with the access's cursor (0)
	p.End(1, 40)
	if len(p.Violations()) == 0 {
		t.Fatal("a service record that disagrees with the elapsed window should record a violation")
	}
	prof := p.Profile()
	if prof.Attributed() != prof.EndToEnd {
		t.Fatalf("conservation broken: %d != %d", prof.Attributed(), prof.EndToEnd)
	}
}

func TestProfileAdd(t *testing.T) {
	mk := func(issue int64) *Profile {
		p := New()
		p.Bind(testParams())
		driveAccess(p, 1, 0, issue)
		return p.Profile()
	}
	a, b := mk(0), mk(1000)
	sum := &Profile{}
	sum.Add(a)
	sum.Add(b)
	if sum.Accesses != 2 {
		t.Fatalf("accesses = %d, want 2", sum.Accesses)
	}
	if sum.Attributed() != a.Attributed()+b.Attributed() {
		t.Fatal("component sums did not add")
	}
	if sum.EndToEnd != a.EndToEnd+b.EndToEnd {
		t.Fatal("end-to-end did not add")
	}
	if sum.End.Total() != 2 {
		t.Fatalf("merged end histogram total = %d, want 2", sum.End.Total())
	}
	if len(sum.Violations) != 0 {
		t.Fatalf("clean profiles merged into violations: %v", sum.Violations)
	}
}

func TestFoldedStacks(t *testing.T) {
	p := New()
	p.Bind(testParams())
	driveAccess(p, 1, 1, 0)
	folded := p.Profile().FoldedStacks("apsi")
	if !strings.Contains(folded, "apsi;core1;dram;service 20\n") {
		t.Fatalf("folded stacks missing dram service line:\n%s", folded)
	}
	if strings.Contains(folded, "core0") {
		t.Fatalf("idle core leaked into folded stacks:\n%s", folded)
	}
	for _, line := range strings.Split(strings.TrimSuffix(folded, "\n"), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("folded line %q is not 'stack weight'", line)
		}
	}
}

func TestWritePprofIsGzippedProto(t *testing.T) {
	p := New()
	p.Bind(testParams())
	driveAccess(p, 1, 0, 0)
	var buf bytes.Buffer
	if err := p.Profile().WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	gr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty profile body")
	}
	for _, want := range []string{"sim_cycles", "dram;service", "core0"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile body missing string %q", want)
		}
	}
}

func TestDiffTableSharesSumToTotal(t *testing.T) {
	base := New()
	base.Bind(testParams())
	driveAccess(base, 1, 0, 0)
	opt := New()
	opt.Bind(testParams())
	// The "optimized" run: same access with less DRAM queueing.
	opt.Begin(1, 0, 0)
	opt.Stage(1, at(probe.L1, 3))
	opt.Stage(1, at(probe.L2, 10))
	opt.Stage(1, hop(probe.Req, 10, 27, 4))
	opt.Stage(1, at(probe.Dir, 29))
	opt.Stage(1, served(29, 30, 50))
	opt.Stage(1, hop(probe.Resp, 50, 62, 4))
	opt.End(1, 62)

	tbl := DiffTable("diff", base.Profile(), opt.Profile())
	s := tbl.String()
	if !strings.Contains(s, "end-to-end") || !strings.Contains(s, "100.0%") {
		t.Fatalf("diff table missing total row:\n%s", s)
	}
	if !strings.Contains(s, "dram") {
		t.Fatalf("diff table missing dram rows:\n%s", s)
	}
}

func TestQuantileTable(t *testing.T) {
	p := New()
	p.Bind(testParams())
	driveAccess(p, 1, 0, 0)
	s := QuantileTable("quantiles", p.Profile()).String()
	for _, want := range []string{"l1", "dram", "end-to-end", "p99"} {
		if !strings.Contains(s, want) {
			t.Fatalf("quantile table missing %q:\n%s", want, s)
		}
	}
}

func TestSummarize(t *testing.T) {
	p := New()
	p.Bind(testParams())
	driveAccess(p, 1, 0, 0)
	sum := p.Profile().Summarize()
	if sum.Accesses != 1 || sum.Attributed != sum.EndToEnd {
		t.Fatalf("summary %+v not conservative", sum)
	}
	var share float64
	for _, c := range sum.Components {
		share += c.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("component shares sum to %f, want 1", share)
	}
	totals := p.Profile().StageTotals()
	if totals["dram;service"] != 20 {
		t.Fatalf("stage totals = %v", totals)
	}
}
