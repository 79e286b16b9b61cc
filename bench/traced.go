package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"offchip/internal/noc"
	"offchip/internal/runner"
)

// machineTotals sums the simulated machine's statistics over one traced
// execution of every job. They are deterministic: a change that only makes
// the host faster must leave every one of them identical.
type machineTotals struct {
	runs                                int
	events, accesses, l1, l2, offchip   int64
	msgs, hops, lat                     [2]int64
	memQueue, memServed, rowHits        int64
	queueOcc                            float64
	migrations, copyMsgs, stall, spills int64
	simulatedAccesses, fullSampled      int64 // sampled runs only
}

func (m *machineTotals) add(runs []runOut) {
	for _, ro := range runs {
		r := ro.res
		m.runs++
		m.events += r.Events
		m.accesses += r.Total
		m.l1 += r.L1Hits
		m.l2 += r.L2LocalHits
		m.offchip += r.OffChip
		for c := 0; c < 2; c++ {
			m.msgs[c] += r.NetMsgs[c]
			m.hops[c] += r.NetHops[c]
			m.lat[c] += r.NetLatency[c]
		}
		m.memQueue += r.MemQueue
		m.memServed += r.MemServed
		m.rowHits += r.RowHits
		m.queueOcc += r.AvgQueueOcc
		m.migrations += r.Migrations
		m.copyMsgs += r.MigCopyMsgs
		m.stall += r.MigStallCycles
		m.spills += r.PageSpills
		if ro.sampled != nil {
			m.simulatedAccesses += ro.sampled.SimulatedAccesses
			m.fullSampled += ro.sampled.FullAccesses
		}
	}
}

// crossCheck compares a job's traced replay with its timed outcome.
func crossCheck(out *runner.JobOutcome, runs []runOut) error {
	if len(runs) != len(out.ExecTimes) {
		return fmt.Errorf("traced replay made %d runs, the timed job %d", len(runs), len(out.ExecTimes))
	}
	for _, r := range runs {
		if t, ok := out.ExecTimes[r.name]; !ok || t != r.execTime() {
			return fmt.Errorf("traced %s run took %d cycles, the timed one %d", r.name, r.execTime(), t)
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is the traced run: every job executes through the runner as in
// the untraced run, then again through replay with spans and allocation
// counts, all under a CPU profile; the two executions must agree. It
// reports the per-layer metrics.
func traced(o runOptions) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	t.job = spanSetup
	jobs, cache, err := setup(w, o.cap, t)
	if err != nil {
		return nil, err
	}
	l := newLedger(w, jobs, pins)
	var mt machineTotals
	replayed := make([]bool, len(jobs))
	var untracedNS, tracedNS float64
	var profBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&profBuf); err != nil {
		return nil, err
	}
	schedule(len(jobs), o.seed, seconds(o.seconds), func(i int) {
		out := l.execute(i)
		if out == nil {
			return
		}
		t.job = out.ID
		js := t.begin(spanJob)
		runs, err := replay(jobs[i].spec, cache, t)
		s := t.end(js)
		if err == nil {
			err = crossCheck(out, runs)
		}
		if err != nil {
			l.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s: traced replay: %v\n", out.ID, err)
			return
		}
		untracedNS += float64(out.WallNS)
		tracedNS += float64(s.end - s.start)
		if !replayed[i] {
			replayed[i] = true
			mt.add(runs)
		}
	})
	pprof.StopCPUProfile()
	r := &result{Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	if !l.complete() {
		return r, nil
	}
	cpu, samples, err := attribute(profBuf.Bytes())
	if err != nil {
		return nil, err
	}
	micro, err := runMicro()
	if err != nil {
		return nil, err
	}
	sampleErr := l.fidelity().sampleErr
	m := r.Metrics
	for k, v := range layerMetrics(t.spans) {
		m[k] = v
	}
	for k, v := range micro {
		m[k] = v
	}
	for _, layer := range cpuLayers {
		m["cpu."+layer] = metric{cpu[layer], "%"}
	}
	m["cpu.samples"] = metric{float64(samples), "count"}
	m["trace_overhead_pct"] = metric{100 * (tracedNS - untracedNS) / untracedNS, "%"}
	m["sample.err_pp"] = metric{sampleErr, "pp"}
	m["sample.simulated_ratio"] = metric{ratio(float64(mt.simulatedAccesses), float64(mt.fullSampled)), "ratio"}
	m["sim.events"] = metric{float64(mt.events), "count"}
	m["sim.accesses"] = metric{float64(mt.accesses), "count"}
	m["cache.l1_hit_ratio"] = metric{ratio(float64(mt.l1), float64(mt.accesses)), "ratio"}
	m["cache.l2_hit_ratio"] = metric{ratio(float64(mt.l2), float64(mt.accesses-mt.l1)), "ratio"}
	m["cache.offchip_share"] = metric{ratio(float64(mt.offchip), float64(mt.accesses)), "ratio"}
	m["noc.onchip_lat_cyc"] = metric{ratio(float64(mt.lat[noc.OnChip]), float64(mt.msgs[noc.OnChip])), "cycles"}
	m["noc.offchip_lat_cyc"] = metric{ratio(float64(mt.lat[noc.OffChip]), float64(mt.msgs[noc.OffChip])), "cycles"}
	m["noc.hops_per_msg"] = metric{ratio(float64(mt.hops[0]+mt.hops[1]), float64(mt.msgs[0]+mt.msgs[1])), "hops"}
	m["dram.queue_wait_cyc"] = metric{ratio(float64(mt.memQueue), float64(mt.memServed)), "cycles"}
	m["dram.row_hit_ratio"] = metric{ratio(float64(mt.rowHits), float64(mt.memServed)), "ratio"}
	m["dram.queue_occ"] = metric{ratio(mt.queueOcc, float64(mt.runs)), "requests"}
	m["mem.migrations"] = metric{float64(mt.migrations), "count"}
	m["mem.mig_copy_msgs"] = metric{float64(mt.copyMsgs), "count"}
	m["mem.mig_stall_cyc"] = metric{float64(mt.stall), "cycles"}
	m["mem.page_spills"] = metric{float64(mt.spills), "count"}
	fmt.Printf("traced %s: %d job executions, %d spans, %d CPU samples\n", w.name, l.attempted, len(t.spans), samples)
	r.Correct = l.failed == 0
	return r, nil
}

// layerMetrics turns the spans into per-layer metrics: each layer's share
// of the traced job wall, and the host cost per unit of work of trace
// generation (per access, set-up included) and simulation (per event).
func layerMetrics(spans []span) map[string]metric {
	var jobWall, children time.Duration
	byName := map[string]time.Duration{}
	var genNS, simNS time.Duration
	var genAcc, simEvents int64
	var genAllocs, simAllocs uint64
	var cacheCalls, cacheHits int
	for _, s := range spans {
		d := s.end - s.start
		if s.name == spanJob {
			jobWall += d
			continue
		}
		inJob := s.parent >= 0 && spans[s.parent].name == spanJob
		if inJob {
			byName[s.name] += d
			if s.name != spanBuild {
				children += d
			}
		}
		switch s.name {
		case spanGenerate, spanCached:
			if s.miss {
				genNS += d
				genAcc += s.accesses
				genAllocs += s.mallocs
			}
			if s.name == spanCached && inJob {
				cacheCalls++
				if !s.miss {
					cacheHits++
				}
			}
		case spanRun, spanSampled:
			simNS += d
			simEvents += s.events
			simAllocs += s.mallocs
		}
	}
	pct := func(d time.Duration) metric { return metric{100 * ratio(float64(d), float64(jobWall)), "%"} }
	return map[string]metric{
		"load.pct":                   pct(byName[spanLoad]),
		"layout.pct":                 pct(byName[spanLayout]),
		"tracegen.pct":               pct(byName[spanGenerate] + byName[spanCompose]),
		"tracecache.pct":             pct(byName[spanCached]),
		"sim.pct":                    pct(byName[spanRun]),
		"sample.pct":                 pct(byName[spanSampled]),
		"job.self_pct":               pct(jobWall - children),
		"tracegen.ns_per_access":     {ratio(float64(genNS), float64(genAcc)), "ns/access"},
		"tracegen.allocs_per_access": {ratio(float64(genAllocs), float64(genAcc)), "allocs/access"},
		"sim.ns_per_event":           {ratio(float64(simNS), float64(simEvents)), "ns/event"},
		"sim.allocs_per_event":       {ratio(float64(simAllocs), float64(simEvents)), "allocs/event"},
		"tracecache.hit_ratio":       {ratio(float64(cacheHits), float64(cacheCalls)), "ratio"},
	}
}
