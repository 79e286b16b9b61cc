package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"offchip/internal/noc"
	"offchip/internal/obs"
)

// manyAccesses builds a workload with enough traffic to exercise every
// substrate: strided streams on several cores, so some requests hit every
// controller and the DRAM queues actually fill.
func manyAccesses(cores, perCore int) *Workload {
	w := &Workload{Name: "many"}
	for c := 0; c < cores; c++ {
		var accs []Access
		for i := 0; i < perCore; i++ {
			// Consecutive pairs touch the same line, so L1 hits occur too.
			accs = append(accs, Access{VAddr: int64(c*1000+i/2) * 64, DesiredMC: -1})
		}
		w.Streams = append(w.Streams, Stream{Core: c, Accesses: accs})
	}
	return w
}

// TestRegistryMatchesResult checks the publish step: the Figure 13/15/18
// numbers the run mirrors into the observability registry must equal the
// plain statistics Result reports.
func TestRegistryMatchesResult(t *testing.T) {
	cfg := testConfig(t)
	o := obs.New()
	cfg.Obs = o
	r, err := Run(cfg, manyAccesses(16, 50))
	if err != nil {
		t.Fatal(err)
	}
	if r.OffChip == 0 || r.MemServed == 0 {
		t.Fatal("workload produced no off-chip traffic; test is vacuous")
	}

	points := map[string]obs.Point{}
	for _, p := range o.Reg.Snapshot(r.ExecTime) {
		key := p.Component + "/" + p.Name
		keys := make([]string, 0, len(p.Labels))
		for k := range p.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			key += "," + k + "=" + p.Labels[k]
		}
		points[key] = p
	}

	// Figure 13: the per-node per-MC access map.
	var mapTotal int64
	for node := range r.AccessMap {
		for mc, want := range r.AccessMap[node] {
			mapTotal += want
			p, ok := points[fmt.Sprintf("sim/offchip_requests,mc=%d,node=%d", mc, node)]
			if !ok {
				t.Fatalf("missing offchip_requests point for node %d mc %d", node, mc)
			}
			if p.Value != want {
				t.Errorf("registry access map [%d][%d] = %d, Result says %d", node, mc, p.Value, want)
			}
		}
	}
	if mapTotal != r.OffChip {
		t.Errorf("access map total %d != OffChip %d", mapTotal, r.OffChip)
	}

	// Figure 15: hop histograms. The registry histogram must carry exactly
	// the messages the aggregate counters saw, and the CDF in Result must
	// be the registry histogram's CDF.
	for c := 0; c < 2; c++ {
		class := noc.Class(c)
		hist := points["noc/hops,class="+class.String()]
		if hist.Count != r.NetMsgs[c] {
			t.Errorf("%v hop histogram has %d messages, Result says %d", class, hist.Count, r.NetMsgs[c])
		}
		if hist.Sum != r.NetHops[c] {
			t.Errorf("%v hop histogram sums %d hops, Result says %d", class, hist.Sum, r.NetHops[c])
		}
		var cum int64
		for i, want := range r.HopCDF[c] {
			cum += hist.Counts[i]
			got := float64(cum) / float64(hist.Count)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%v HopCDF[%d] = %v, registry CDF %v", class, i, want, got)
			}
		}
		if msgs := points["noc/messages,class="+class.String()]; msgs.Value != r.NetMsgs[c] {
			t.Errorf("%v message counter %d != %d", class, msgs.Value, r.NetMsgs[c])
		}
		if lat := points["noc/latency_cycles,class="+class.String()]; lat.Value != r.NetLatency[c] {
			t.Errorf("%v latency counter %d != %d", class, lat.Value, r.NetLatency[c])
		}
	}

	// Figure 18: per-MC queue occupancy is the registry's time-weighted
	// queue_len averaged over the run.
	for mc, want := range r.QueueOcc {
		p, ok := points[fmt.Sprintf("dram/queue_len,mc=%d", mc)]
		if !ok {
			t.Fatalf("missing queue_len for mc %d", mc)
		}
		if math.Abs(p.Avg-want) > 1e-12 {
			t.Errorf("registry queue occupancy mc%d = %v, Result says %v", mc, p.Avg, want)
		}
	}

	// Supporting counters: served/row-hit totals and cache hits.
	var served, rowHits, bankServed int64
	for mc := 0; mc < cfg.Machine.NumMCs; mc++ {
		served += points[fmt.Sprintf("dram/served,mc=%d", mc)].Value
		rowHits += points[fmt.Sprintf("dram/row_hits,mc=%d", mc)].Value
	}
	for _, p := range o.Reg.Snapshot(0) {
		if p.Component == "dram" && p.Name == "bank_served" {
			bankServed += p.Value
		}
	}
	if served != r.MemServed {
		t.Errorf("served %d != MemServed %d", served, r.MemServed)
	}
	if bankServed != served {
		t.Errorf("per-bank served %d != per-MC served %d", bankServed, served)
	}
	if rowHits != r.RowHits {
		t.Errorf("row hits %d != %d", rowHits, r.RowHits)
	}
	var l1Hits int64
	for _, p := range o.Reg.Snapshot(0) {
		if p.Component == "cache" && p.Name == "hits" && p.Labels["comp"][:2] == "l1" {
			l1Hits += p.Value
		}
	}
	if l1Hits != r.L1Hits {
		t.Errorf("cache registry l1 hits %d != L1Hits %d", l1Hits, r.L1Hits)
	}
	if got := points["sim/accesses"].Value; got != r.Total {
		t.Errorf("accesses %d != Total %d", got, r.Total)
	}
	if got := points["sim/offchip"].Value; got != r.OffChip {
		t.Errorf("offchip %d != %d", got, r.OffChip)
	}
}

// TestProgressCallback verifies live reporting fires with sane values.
func TestProgressCallback(t *testing.T) {
	cfg := testConfig(t)
	var samples []Progress
	cfg.OnProgress = func(p Progress) { samples = append(samples, p) }
	cfg.ProgressEvery = 100
	r, err := Run(cfg, manyAccesses(16, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no progress samples")
	}
	last := samples[len(samples)-1]
	if last.Cycles <= 0 || last.Cycles > r.ExecTime {
		t.Errorf("cycles = %d (exec time %d)", last.Cycles, r.ExecTime)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Events != samples[i-1].Events+100 {
			t.Errorf("events not monotonic by 100: %d then %d", samples[i-1].Events, samples[i].Events)
		}
		if samples[i].Cycles < samples[i-1].Cycles {
			t.Errorf("cycles went backward")
		}
	}
}

// TestLiveRegistryScrape scrapes the registry from another goroutine while
// the run is in progress — the -serve /metrics path. Under -race it proves
// the run publishes into the registry without racing its readers; the
// handshake at the first progress tick proves the scrape sees the run
// advance mid-run, not only at its end.
func TestLiveRegistryScrape(t *testing.T) {
	cfg := testConfig(t)
	o := obs.New()
	cfg.Obs = o
	cfg.ProgressEvery = 100
	tick, scraped := make(chan struct{}), make(chan int64)
	mid := int64(-1)
	cfg.OnProgress = func(Progress) {
		if mid < 0 {
			tick <- struct{}{}
			mid = <-scraped
		}
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-tick:
				scraped <- o.Reg.Sum("sim", "accesses")
			case <-done:
				return
			default:
				o.Reg.Snapshot(0)
			}
		}
	}()
	r, err := Run(cfg, manyAccesses(16, 50))
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if mid <= 0 || mid >= r.Total {
		t.Errorf("mid-run scrape saw %d accesses, want between 0 and %d", mid, r.Total)
	}
	if got := o.Reg.Sum("sim", "accesses"); got != r.Total {
		t.Errorf("final registry has %d accesses, Result %d", got, r.Total)
	}
}
